"""PCIe fabric: ports, links, and address routing.

The fabric is a root complex with point-to-point links to endpoints.
Every attached endpoint gets a :class:`Port` with a full-duplex pair of
:class:`~repro.sim.resources.BandwidthLink` (tx toward the root, rx
from the root).  Transactions are routed by memory address through
*windows*; anything not claimed by a window goes to the *root handler*
(host DRAM on the host fabric; the BMS-Engine's DMA router on the
back-end fabric).

Timing model per transaction:

* write:          tx-link serialization (+ per-hop latency) [+ target
  rx-link if the window is behind another port]
* read:           request header on tx, target access time, completion
  payload on the target->initiator path

CPU-initiated MMIO uses :meth:`cpu_post` for doorbell writes and
:meth:`cpu_read` for register reads; both traverse only the target
port's rx/tx links.

Writes come in two forms with the same link reservations and delivery
time.  A *posted* write (:meth:`Port.post_write`,
:meth:`PCIeFabric.cpu_post`) is what PCIe memory writes are on the
wire -- doorbells, MSI-X messages, DMA data: the sender gets no
completion back, so the model schedules no completion event either.
A *waited* write (:meth:`Port.mem_write`) returns an event that fires
on delivery, for the callers whose next step must not start before the
bytes land (a CQE behind its data).  :meth:`PCIeFabric.cpu_write` is
the waited form of an MMIO write; no datapath waits on one, and it
stays as the reference the fabric tests compare posting against.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Protocol

from ..sim import BandwidthLink, Event, SimulationError, Simulator
from .tlp import VendorDefinedMessage, wire_bytes

__all__ = ["AddressHandler", "Port", "PCIeFabric", "PCIE_GEN3_BYTES_PER_SEC_PER_LANE"]

# PCIe Gen3: 8 GT/s, 128b/130b -> ~984.6 MB/s per lane per direction (raw;
# framing overhead is charged via tlp.wire_bytes).
PCIE_GEN3_BYTES_PER_SEC_PER_LANE = 984_600_000.0


class AddressHandler(Protocol):
    """Target of routed memory transactions (DRAM, BAR, chip memory)."""

    def mem_write(self, addr: int, length: int, data: Optional[bytes]) -> None:
        """Handle a memory write landing at ``addr``."""
        ...  # pragma: no cover - protocol

    def mem_read(self, addr: int, length: int) -> Optional[bytes]:
        """Handle a memory read; return bytes or None (elided data)."""
        ...  # pragma: no cover - protocol

    @property
    def access_ns(self) -> int:
        """Device-side access latency charged to reads."""
        ...  # pragma: no cover - protocol


class _Window:
    __slots__ = ("base", "end", "handler", "port")

    def __init__(self, base: int, size: int, handler: AddressHandler, port: Optional["Port"]):
        self.base = base
        self.end = base + size
        self.handler = handler
        self.port = port

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


class Port:
    """An endpoint's attachment point: link pair + routing id space."""

    def __init__(
        self,
        fabric: "PCIeFabric",
        name: str,
        lanes: int,
        hop_latency_ns: int,
    ):
        self.fabric = fabric
        self.name = name
        self.lanes = lanes
        bw = PCIE_GEN3_BYTES_PER_SEC_PER_LANE * lanes
        sim = fabric.sim
        self.tx = BandwidthLink(sim, bw, propagation_ns=hop_latency_ns, name=f"{name}.tx")
        self.rx = BandwidthLink(sim, bw, propagation_ns=hop_latency_ns, name=f"{name}.rx")
        self._vdm_handler: Optional[Callable[[VendorDefinedMessage], None]] = None

    # -- address windows --------------------------------------------------
    def map_window(self, base: int, size: int, handler: AddressHandler) -> None:
        """Expose a BAR region of this endpoint into the fabric."""
        self.fabric._add_window(_Window(base, size, handler, self))

    # -- endpoint-initiated transactions ----------------------------------
    def mem_write(self, addr: int, length: int, data: Optional[bytes] = None) -> Event:
        """DMA write toward the fabric; event fires on delivery."""
        return self.fabric._routed_write(self, addr, length, data)

    def post_write(self, addr: int, length: int, data: Optional[bytes] = None) -> None:
        """Posted DMA write: delivered like :meth:`mem_write`, but the
        sender is told nothing, so no completion event is scheduled."""
        self.fabric._routed_post(self, addr, length, data)

    def mem_read(self, addr: int, length: int) -> Event:
        """DMA read; event fires with the data when the completion lands."""
        return self.fabric._routed_read(self, addr, length)

    def send_vdm(self, message: VendorDefinedMessage) -> Event:
        """Send a vendor-defined message (MCTP transport)."""
        return self.fabric._route_vdm(self, message)

    def on_vdm(self, handler: Callable[[VendorDefinedMessage], None]) -> None:
        self._vdm_handler = handler

    # -- fault injection (pcie.link hook point) ----------------------------
    def link_down(self, duration_ns: int) -> None:
        """Link flap: both directions unavailable for ``duration_ns``;
        queued transfers resume when the link retrains."""
        self.tx.stall(duration_ns)
        self.rx.stall(duration_ns)

    def set_lanes(self, lanes: int) -> None:
        """Retrain at a different width (fault: width degrade)."""
        if lanes < 1:
            raise SimulationError(f"{self.name}: link width must be >= 1")
        self.lanes = lanes
        bw = PCIE_GEN3_BYTES_PER_SEC_PER_LANE * lanes
        self.tx.set_rate(bw)
        self.rx.set_rate(bw)


class PCIeFabric:
    """One PCIe domain: a root complex plus its endpoints."""

    def __init__(self, sim: Simulator, name: str = "pcie", hop_latency_ns: int = 150):
        self.sim = sim
        self.name = name
        self.hop_latency_ns = hop_latency_ns
        self._windows: list[_Window] = []
        self._ports: list[Port] = []
        self._root_handler: Optional[AddressHandler] = None
        self._root_vdm_handler: Optional[Callable[[VendorDefinedMessage], None]] = None
        # addr -> (handler, port) memo: ring slots, doorbells and DMA
        # buffers hit the same addresses constantly; invalidated when
        # the window list or root handler changes
        self._resolve_cache: dict[int, tuple[AddressHandler, Optional[Port]]] = {}
        # constant event labels (an f-string per transaction is pure
        # allocation churn on the hot path)
        self._wr_name = name + ":wr"
        self._rd_name = name + ":rd"
        self._cpuwr_name = name + ":cpuwr"
        self._cpurd_name = name + ":cpurd"

    # -- topology ----------------------------------------------------------
    def attach(self, name: str, lanes: int = 4) -> Port:
        port = Port(self, name, lanes, self.hop_latency_ns)
        self._ports.append(port)
        return port

    def port(self, name: str) -> Port:
        """Look up an attached endpoint's port by name."""
        for port in self._ports:
            if port.name == name:
                return port
        raise SimulationError(f"{self.name}: no port named {name!r}")

    def set_root_handler(self, handler: AddressHandler) -> None:
        """Claim all unclaimed addresses (host DRAM / engine chip space)."""
        self._root_handler = handler
        self._resolve_cache.clear()

    def set_root_vdm_handler(self, handler: Callable[[VendorDefinedMessage], None]) -> None:
        self._root_vdm_handler = handler

    def _add_window(self, window: _Window) -> None:
        for existing in self._windows:
            if window.base < existing.end and existing.base < window.end:
                raise SimulationError(
                    f"window [{window.base:#x},{window.end:#x}) overlaps "
                    f"[{existing.base:#x},{existing.end:#x})"
                )
        self._windows.append(window)
        self._resolve_cache.clear()

    def _resolve(self, addr: int) -> tuple[AddressHandler, Optional[Port]]:
        cache = self._resolve_cache
        hit = cache.get(addr)
        if hit is not None:
            return hit
        for window in self._windows:
            if window.contains(addr):
                result = (window.handler, window.port)
                break
        else:
            if self._root_handler is None:
                raise SimulationError(
                    f"{self.name}: no window claims address {addr:#x} and no root handler"
                )
            result = (self._root_handler, None)
        if len(cache) < 65536:
            cache[addr] = result
        return result

    # -- routed transactions -------------------------------------------------
    @staticmethod
    def _write_legs(src: Port, dst_port: Optional[Port], nbytes: int,
                    deliver: Callable[[Event], None]) -> None:
        """Carry a write's TLP from ``src`` to its target; ``deliver``
        runs when the last leg lands."""
        leg1 = src.tx.transfer(nbytes)
        if dst_port is None or dst_port is src:
            leg1.callbacks.append(deliver)
        else:
            # peer-to-peer: second hop down the destination port
            def hop(_ev: Event) -> None:
                dst_port.rx.transfer(nbytes).callbacks.append(deliver)

            leg1.callbacks.append(hop)

    def _routed_write(self, src: Port, addr: int, length: int, data: Optional[bytes]) -> Event:
        handler, dst_port = self._resolve(addr)
        done = self.sim.pooled_event(self._wr_name)

        def deliver(_ev: Event) -> None:
            handler.mem_write(addr, length, data)
            done.succeed()

        self._write_legs(src, dst_port, wire_bytes(length), deliver)
        return done

    def _routed_post(self, src: Port, addr: int, length: int, data: Optional[bytes]) -> None:
        handler, dst_port = self._resolve(addr)
        self._write_legs(src, dst_port, wire_bytes(length),
                         lambda _ev: handler.mem_write(addr, length, data))

    def _routed_read(self, src: Port, addr: int, length: int) -> Event:
        handler, dst_port = self._resolve(addr)
        done = self.sim.pooled_event(self._rd_name)
        req_bytes = wire_bytes(0)
        cpl_bytes = wire_bytes(length)

        def send_completion(value) -> None:
            def complete(_ev: Event) -> None:
                done.succeed(value)

            if dst_port is None or dst_port is src:
                src.rx.transfer(cpl_bytes).callbacks.append(complete)
            else:
                def hop(_e: Event) -> None:
                    src.rx.transfer(cpl_bytes).callbacks.append(complete)

                dst_port.tx.transfer(cpl_bytes).callbacks.append(hop)

        def after_access(_ev: Event) -> None:
            # async handlers (e.g. the BMS-Engine DMA router, which must
            # fetch from the *other* PCIe domain) return an event; plain
            # handlers return the data directly
            reader = getattr(handler, "mem_read_async", None)
            if reader is not None:
                reader(addr, length).callbacks.append(
                    lambda ev: send_completion(ev.value)
                )
            else:
                send_completion(handler.mem_read(addr, length))

        def after_request(_ev: Event) -> None:
            self.sim.timeout(handler.access_ns).callbacks.append(after_access)

        leg1 = src.tx.transfer(req_bytes)
        if dst_port is None or dst_port is src:
            leg1.callbacks.append(after_request)
        else:
            def hop_req(_e: Event) -> None:
                dst_port.rx.transfer(req_bytes).callbacks.append(after_request)

            leg1.callbacks.append(hop_req)
        return done

    # -- CPU (root-initiated) transactions ------------------------------------
    def _cpu_write_leg(self, handler: AddressHandler, dst_port: Optional[Port],
                       length: int, deliver: Callable[[Event], None]) -> None:
        """Carry a CPU write to its target; ``deliver`` runs on arrival."""
        if dst_port is None:
            # root-local (DRAM): no link traversal; small access cost
            self.sim.timeout(handler.access_ns).callbacks.append(deliver)
        else:
            dst_port.rx.transfer(wire_bytes(length)).callbacks.append(deliver)

    def cpu_write(self, addr: int, length: int, data: Optional[bytes] = None) -> Event:
        """MMIO write from the host CPU; event fires on delivery."""
        handler, dst_port = self._resolve(addr)
        done = self.sim.pooled_event(self._cpuwr_name)

        def deliver(_ev: Event) -> None:
            handler.mem_write(addr, length, data)
            done.succeed()

        self._cpu_write_leg(handler, dst_port, length, deliver)
        return done

    def cpu_post(self, addr: int, length: int, data: Optional[bytes] = None) -> None:
        """Posted MMIO write from the host CPU (a doorbell): delivered
        like :meth:`cpu_write`, with no completion event."""
        handler, dst_port = self._resolve(addr)
        self._cpu_write_leg(handler, dst_port, length,
                            lambda _ev: handler.mem_write(addr, length, data))

    def cpu_read(self, addr: int, length: int) -> Event:
        """MMIO/DRAM read from the host CPU."""
        handler, dst_port = self._resolve(addr)
        done = self.sim.pooled_event(self._cpurd_name)

        def complete(_ev: Event) -> None:
            done.succeed(handler.mem_read(addr, length))

        if dst_port is None:
            self.sim.timeout(handler.access_ns).callbacks.append(complete)
        else:
            def after_req(_ev: Event) -> None:
                self.sim.timeout(handler.access_ns).callbacks.append(
                    lambda _e: dst_port.tx.transfer(wire_bytes(length)).callbacks.append(complete)
                )

            dst_port.rx.transfer(wire_bytes(0)).callbacks.append(after_req)
        return done

    # -- vendor-defined messages (MCTP transport) ------------------------------
    def _route_vdm(self, src: Port, message: VendorDefinedMessage) -> Event:
        done = self.sim.event(name=f"{self.name}:vdm")
        nbytes = wire_bytes(message.payload_len)

        if message.route_to_root or message.target_id is None:
            def deliver(_ev: Event) -> None:
                if self._root_vdm_handler is None:
                    raise SimulationError(f"{self.name}: no root VDM handler")
                self._root_vdm_handler(message)
                done.succeed()

            src.tx.transfer(nbytes).callbacks.append(deliver)
            return done

        target = self._port_by_name_or_id(message.target_id)

        def deliver_ep(_ev: Event) -> None:
            if target._vdm_handler is None:
                raise SimulationError(f"{target.name}: no VDM handler registered")
            target._vdm_handler(message)
            done.succeed()

        def hop(_ev: Event) -> None:
            target.rx.transfer(nbytes).callbacks.append(deliver_ep)

        if src is target:
            src.tx.transfer(nbytes).callbacks.append(deliver_ep)
        else:
            src.tx.transfer(nbytes).callbacks.append(hop)
        return done

    def root_send_vdm(self, message: VendorDefinedMessage) -> Event:
        """VDM injected at the root (e.g. BMC/remote console side)."""
        done = self.sim.event(name=f"{self.name}:vdm-root")
        if message.target_id is None:
            raise SimulationError("root VDM needs a target_id")
        target = self._port_by_name_or_id(message.target_id)

        def deliver(_ev: Event) -> None:
            if target._vdm_handler is None:
                raise SimulationError(f"{target.name}: no VDM handler registered")
            target._vdm_handler(message)
            done.succeed()

        target.rx.transfer(wire_bytes(message.payload_len)).callbacks.append(deliver)
        return done

    def _port_by_name_or_id(self, target: Any) -> Port:
        for idx, port in enumerate(self._ports):
            if idx == target or port.name == target:
                return port
        raise SimulationError(f"{self.name}: unknown VDM target {target!r}")
