"""Copy-on-write volume composition over the BMS-Engine Mapping Table.

BM-Store's Fig. 4a table translates host chunks to physical extents but
knows nothing about *sharing*: every namespace owns its chunks outright,
so provisioning a tenant from a golden image means copying every chunk
up front.  This layer adds the missing composition story on top of the
unmodified translation hardware model:

* **golden images** — any namespace adopted by the manager becomes a
  clonable base volume;
* **thin clones** — a clone gets its own :class:`MappingTable` whose
  entries point at the *source's* physical chunks, bumping a per-chunk
  refcount instead of copying data (provisioning is O(chunks) metadata);
* **snapshots** — a point-in-time freeze of a volume's chunk list,
  holding a reference on every chunk so later writes to the origin
  cannot free it from under the snapshot;
* **CoW faulting** — the engine's back-end path consults the manager
  before translating any write, host or pushdown; the first write to a
  *shared* chunk allocates a fresh physical chunk, charges a modeled
  copy latency, copies the parent's written blocks, remaps the table
  entry, and drops the reference on the parent chunk.  A second writer
  to a chunk whose fault is still in flight waits for it and then
  finds the chunk private.

A chunk is shared iff its refcount exceeds one; the *last* holder
writes in place, so a fully-diverged clone pays no further CoW tax.
Refcounts are per ``(ssd_id, physical_chunk)`` — exactly the coordinate
the packed 8-bit mapping entry encodes — and the lba checker shadows
them: a chunk must not be freed while referenced or mapped, and no
drive may execute a write into a chunk that is still shared.
Passthrough bypasses the engine, so it excludes sharing both ways: a
namespace with shared chunks cannot enter passthrough, and a volume in
passthrough cannot be snapshotted or cloned.

The manager is dormant by default (``engine.volumes is None``): worlds
that never call :meth:`BMSEngine.volume_manager` execute byte-identical
event sequences to pre-volume builds.
"""

from __future__ import annotations

from ..nvme.namespace import Namespace
from ..nvme.spec import LBA_BYTES
from ..sim import SimulationError
from .lba_mapping import MappingEntry, MappingTable

__all__ = ["VolumeManager", "CLONE_CHUNK_META_NS", "COW_COPY_NS"]

#: modeled metadata cost of cloning one chunk (table write + refcount
#: bump on the ARM core) — provisioning a 24-chunk volume costs ~6 us,
#: versus minutes for a physical copy of 1.5 TB
CLONE_CHUNK_META_NS = 250

#: modeled cost of the CoW chunk copy on first write.  The production
#: copy is a background chunk-sized DMA; the simulation charges a flat
#: latency on the faulting command (the paper-scale 64 GiB chunk would
#: dominate any run, so this models a small-chunk dev configuration).
COW_COPY_NS = 40_000


class VolumeManager:
    """Refcounted chunk sharing, snapshots, and thin clones for one engine."""

    def __init__(self, engine, cow_copy_ns: int = COW_COPY_NS,
                 clone_chunk_meta_ns: int = CLONE_CHUNK_META_NS):
        self.engine = engine
        self.obs = engine.obs
        self.cow_copy_ns = cow_copy_ns
        self.clone_chunk_meta_ns = clone_chunk_meta_ns
        #: (ssd_id, physical chunk) -> number of holders (volumes + snapshots)
        self.refcounts: dict[tuple[int, int], int] = {}
        #: volume key -> {"kind": "base"|"clone", "parent": Optional[str]}
        self.volumes: dict[str, dict] = {}
        #: snapshot name -> frozen state of its origin volume
        self.snapshots: dict[str, dict] = {}
        #: per-volume CoW fault counts (global total in ``cow_faults``)
        self.faults_by_volume: dict[str, int] = {}
        self.cow_faults = 0
        #: (volume key, chunk index) -> writers parked behind its fault
        self._faulting: dict[tuple[str, int], list] = {}
        self.clones_created = 0
        self.snapshots_created = 0
        #: bound CheckContext (lba checker shadows refcounts); None = dormant
        self.checks = None
        ctx = engine._check_ctx
        if ctx is not None:
            ctx.bind_volumes(self)
        # existing namespaces become base volumes immediately so their
        # chunks are refcounted before any snapshot/clone touches them
        for key in sorted(engine.namespaces):
            self.adopt(key)

    # ------------------------------------------------------------ refcounts
    def _incref(self, phys: tuple[int, int]) -> None:
        count = self.refcounts.get(phys, 0) + 1
        self.refcounts[phys] = count
        if self.checks is not None:
            self.checks.on_chunk_incref(self, phys, count)
        self._publish_shared()

    def _decref(self, phys: tuple[int, int]) -> bool:
        """Drop one reference; returns True when the chunk became free."""
        count = self.refcounts.get(phys)
        if count is None:
            raise SimulationError(f"decref of untracked chunk {phys}")
        if self.checks is not None:
            self.checks.on_chunk_decref(self, phys, count - 1)
        if count > 1:
            self.refcounts[phys] = count - 1
            self._publish_shared()
            return False
        del self.refcounts[phys]
        if self.checks is not None:
            self.checks.on_chunk_free(self, phys)
        self._publish_shared()
        return True

    def is_shared(self, phys: tuple[int, int]) -> bool:
        return self.refcounts.get(phys, 1) > 1

    def shared_chunk_count(self) -> int:
        return sum(1 for count in self.refcounts.values() if count > 1)

    def _publish_shared(self) -> None:
        if self.obs is not None:
            self.obs.gauge("shared_chunks").set(self.shared_chunk_count())

    # ------------------------------------------------------------- volumes
    def adopt(self, key: str) -> None:
        """Register an existing engine namespace as a base volume."""
        if key in self.volumes:
            return
        ens = self.engine.namespaces.get(key)
        if ens is None:
            raise SimulationError(f"no namespace {key} to adopt")
        self.volumes[key] = {"kind": "base", "parent": None}
        self.faults_by_volume.setdefault(key, 0)
        for phys in ens.chunks:
            self._incref(tuple(phys))

    def _resolve_source(self, source: str):
        """A clone source: a live volume or a snapshot.

        Returns ``(chunk list, num_blocks, parent name)``.
        """
        snap = self.snapshots.get(source)
        if snap is not None:
            return list(snap["chunks"]), snap["num_blocks"], source
        ens = self.engine.namespaces.get(source)
        if ens is None:
            raise SimulationError(f"no volume or snapshot named {source}")
        self._refuse_passthrough(ens)
        self.adopt(source)
        return list(ens.chunks), ens.namespace.num_blocks, source

    def create_snapshot(self, volume: str, snapshot: str) -> dict:
        """Freeze ``volume``'s current mapping under the name ``snapshot``."""
        if snapshot in self.snapshots or snapshot in self.engine.namespaces:
            raise SimulationError(f"name {snapshot} already in use")
        ens = self.engine.namespaces.get(volume)
        if ens is None:
            raise SimulationError(f"no volume {volume}")
        self._refuse_passthrough(ens)
        self.adopt(volume)
        chunks = tuple(tuple(phys) for phys in ens.chunks)
        self.snapshots[snapshot] = {
            "origin": volume,
            "chunks": chunks,
            "num_blocks": ens.namespace.num_blocks,
        }
        for phys in chunks:
            self._incref(phys)
        self.snapshots_created += 1
        if self.obs is not None:
            self.obs.counter("snapshots_created").inc()
        return self.volume_stat(snapshot)

    def _refuse_passthrough(self, ens) -> None:
        """Passthrough writes go to the drive in place, never faulting:
        sharing a passthrough volume's chunks would let them corrupt the
        snapshot or clone."""
        if ens.bound_fn in self.engine._passthrough:
            raise SimulationError(
                f"volume {ens.key} is in passthrough mode; its in-place "
                "writes would corrupt a snapshot or clone")

    def delete_snapshot(self, snapshot: str) -> None:
        snap = self.snapshots.pop(snapshot, None)
        if snap is None:
            raise SimulationError(f"no snapshot {snapshot}")
        for phys in snap["chunks"]:
            freed = self._decref(phys)
            if freed:
                self.engine._free_chunks[phys[0]].append(phys[1])

    def clone_volume(self, source: str, key: str):
        """Thin-clone ``source`` (volume or snapshot) into namespace ``key``.

        No data moves: the clone's fresh :class:`MappingTable` points at
        the source's physical chunks and every chunk gains a reference.
        Returns the new :class:`EngineNamespace` (unbound; the caller
        attaches a function and QoS limits as for any namespace).
        """
        engine = self.engine
        if key in engine.namespaces or key in self.snapshots:
            raise SimulationError(f"name {key} already in use")
        chunks, num_blocks, parent = self._resolve_source(source)
        rows = max(1, -(-len(chunks) // 8))
        table = MappingTable(engine.chunk_blocks, rows=rows)
        if engine._check_ctx is not None:
            engine._check_ctx.bind_table(table)
        for idx, (ssd_id, chunk) in enumerate(chunks):
            table.set_entry(idx, MappingEntry(base_chunk=chunk, ssd_id=ssd_id))
            self._incref((ssd_id, chunk))
        ns = Namespace(nsid=1, num_blocks=num_blocks)
        from .engine import EngineNamespace

        ens = EngineNamespace(key=key, namespace=ns, table=table,
                              chunks=[tuple(phys) for phys in chunks])
        engine.namespaces[key] = ens
        self.volumes[key] = {"kind": "clone", "parent": parent}
        self.faults_by_volume[key] = 0
        self.clones_created += 1
        if self.obs is not None:
            self.obs.counter("clones_created").inc()
            self.obs.counter("clone_provision_ns").inc(self.clone_cost_ns(len(chunks)))
        return ens

    def clone_cost_ns(self, nchunks: int) -> int:
        """Modeled provisioning latency: pure metadata, O(chunks)."""
        return self.clone_chunk_meta_ns * max(1, nchunks)

    def release_namespace(self, key: str, ens) -> list[tuple[int, int]]:
        """Namespace teardown: drop refs; return the chunks now free."""
        self.volumes.pop(key, None)
        freeable: list[tuple[int, int]] = []
        for phys in ens.chunks:
            phys = tuple(phys)
            if self.refcounts.get(phys) is None:
                # never adopted (manager created after heavy churn)
                freeable.append(phys)
            elif self._decref(phys):
                freeable.append(phys)
        return freeable

    # ------------------------------------------------------------ CoW path
    def on_write(self, ens, slba: int, nblocks: int, span=None):
        """Engine write-path hook, *before* translation (step ② prefix).

        Generator: yields only when a shared chunk actually faults, so
        the common unshared case adds zero simulation events.
        """
        if not self.refcounts:
            return
        cs = ens.table.chunk_blocks
        first = slba // cs
        last = (slba + max(1, nblocks) - 1) // cs
        for idx in range(first, min(last, len(ens.chunks) - 1) + 1):
            if (ens.key, idx) in self._faulting:
                yield from self._await_fault(ens.key, idx)
            phys = tuple(ens.chunks[idx])
            if self.refcounts.get(phys, 1) > 1:
                yield from self._cow_fault(ens, idx, phys, span)

    def _await_fault(self, key: str, idx: int):
        """Park behind the in-flight fault of chunk ``idx`` of ``key``;
        the writer then finds the chunk private instead of faulting the
        parent a second time."""
        while (key, idx) in self._faulting:
            wake = self.engine.sim.event(name="cow.wait")
            self._faulting[(key, idx)].append(wake)
            yield wake

    def _cow_fault(self, ens, idx: int, old: tuple[int, int], span=None):
        """First write to a shared chunk: allocate, copy, remap, decref."""
        new_ssd, new_chunk = self._alloc_chunk(prefer=old[0])
        self._faulting[(ens.key, idx)] = []
        # the chunk copy is the only simulated cost of the fault
        yield self.engine.sim.timeout(self.cow_copy_ns)
        self._copy_blocks(old, (new_ssd, new_chunk))
        self.refcounts[(new_ssd, new_chunk)] = 1
        if self.checks is not None:
            self.checks.on_chunk_incref(self, (new_ssd, new_chunk), 1)
        ens.table.set_entry(
            idx, MappingEntry(base_chunk=new_chunk, ssd_id=new_ssd))
        ens.chunks[idx] = (new_ssd, new_chunk)
        freed = self._decref(old)
        if freed:
            # the writer held the penultimate ref and a concurrent
            # release dropped the other: return the parent chunk
            self.engine._free_chunks[old[0]].append(old[1])
        self.cow_faults += 1
        self.faults_by_volume[ens.key] = self.faults_by_volume.get(ens.key, 0) + 1
        if self.obs is not None:
            self.obs.counter("cow_faults", ns=ens.key).inc()
        if span is not None:
            span.note_fault("cow_fault")
        for wake in self._faulting.pop((ens.key, idx)):
            wake.succeed()

    def _copy_blocks(self, old: tuple[int, int], new: tuple[int, int]) -> None:
        """The fault's data copy: the new chunk takes the parent chunk's
        stored blocks (untimed; ``cow_copy_ns`` already charged it)."""
        slot_for = self.engine.adaptor.slot_for
        src = getattr(slot_for(old[0]), "ssd", None)
        dst = getattr(slot_for(new[0]), "ssd", None)
        if src is not None and dst is not None:
            cs = self.engine.chunk_blocks
            src.copy_blocks(old[1] * cs, cs, dst, new[1] * cs)

    def _alloc_chunk(self, prefer: int) -> tuple[int, int]:
        """A free physical chunk, same-SSD preferred (deterministic)."""
        free = self.engine._free_chunks
        order = [prefer] + [i for i in range(len(free)) if i != prefer]
        for ssd_id in order:
            if free[ssd_id]:
                return ssd_id, free[ssd_id].pop(0)
        raise SimulationError("CoW fault: no free chunks on any back end")

    # ------------------------------------------------------------ reporting
    def volume_stat(self, key: str) -> dict:
        """A deterministic, JSON-able description of one volume/snapshot."""
        snap = self.snapshots.get(key)
        if snap is not None:
            chunks = list(snap["chunks"])
            kind, parent = "snapshot", snap["origin"]
            size_bytes = snap["num_blocks"] * LBA_BYTES
        else:
            ens = self.engine.namespaces.get(key)
            if ens is None:
                raise SimulationError(f"no volume or snapshot named {key}")
            self.adopt(key)
            chunks = [tuple(phys) for phys in ens.chunks]
            info = self.volumes[key]
            kind, parent = info["kind"], info["parent"]
            size_bytes = ens.namespace.num_blocks * LBA_BYTES
        shared = sum(1 for phys in chunks
                     if self.refcounts.get(tuple(phys), 1) > 1)
        return {
            "key": key,
            "kind": kind,
            "parent": parent,
            "size_bytes": size_bytes,
            "chunks": len(chunks),
            "shared_chunks": shared,
            "cow_faults": self.faults_by_volume.get(key, 0),
            "snapshots": sorted(
                name for name, s in self.snapshots.items() if s["origin"] == key
            ),
        }

    def stat_all(self) -> list[dict]:
        """Every volume and snapshot, sorted by key (determinism probe)."""
        names = sorted(set(self.volumes) | set(self.snapshots))
        return [self.volume_stat(name) for name in names]
