"""Fleet maintenance control plane: rolling hot-upgrades in waves.

The orchestrator turns a :class:`~repro.fleet.topology.FleetSpec`, a
tenant list, and a placement policy into per-server
:class:`~repro.fleet.server_sim.ServerRunSpec` jobs, fans them over
:func:`repro.runner.parallel_map` workers (per-server seeds, so the
fan-out is byte-deterministic), and aggregates the payloads into a
fleet report:

* **waves** — failure-domain-aware rolling firmware hot-upgrade: at
  most ``max_per_domain`` servers of any rack are upgraded per wave,
  every server exactly once, with fleet-wide availability measured per
  wave window (the Fig. 15 story at fleet scale);
* **tenants** — per-tenant availability / p99 against the QoS class
  SLOs, with error-budget accounting from the measured windows;
* **maintenance** — reaction to armed fault presets: a surprise
  hot-removal observed in a server's fault log drains that server, and
  the control plane re-places its tenants on the residual fleet.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runner import parallel_map
from ..sim.units import MS, sec
from .migration import (
    CHUNK_COPY_NS,
    COLD_CHUNK_COPY_NS,
    CUTOVER_NS,
    PRECOPY_ROUND_NS,
    PRECOPY_ROUNDS,
    MigrationArrival,
    MigrationPlan,
)
from .placement import Placement, evacuate, place
from .server_sim import ServerRunSpec, TenantAssignment, run_server
from .tenants import TenantSpec, make_tenants
from .topology import FleetSpec, build_fleet

__all__ = ["FleetRunConfig", "plan_waves", "run_fleet", "render_report"]


@dataclass(frozen=True)
class FleetRunConfig:
    """Timing/load knobs of one fleet run (everything simulated-time)."""

    max_per_domain: int = 1         # upgrade concurrency per failure domain
    start_ns: int = 200 * MS        # ramp before wave 0
    spacing_ns: int = 450 * MS      # wave period; must outlast one upgrade
    tail_ns: int = 200 * MS         # observation window after the last wave
    window_ns: int = 50 * MS        # availability accounting granularity
    pace_ns: int = 4 * MS           # per-worker inter-I/O gap
    activation_s: float = 0.08      # firmware activation (paper full: 6.5)
    fw_version: str = "FW-NEXT"
    fault_wave: int = 0             # armed preset fires mid this wave
    #: control-plane reaction to a surprise hot-removal: ``"none"``
    #: (report-only evacuation plan, the legacy behavior), ``"drain"``
    #: (stop the tenants, cold-copy, serve from the destination), or
    #: ``"migrate"`` (iterative pre-copy under live I/O + brief cutover,
    #: plus one warm-standby "prime" round ahead of every upgrade wave)
    reaction: str = "none"
    #: fault -> reaction delay; past the watchdog re-seat (~120 ms) so
    #: pre-copy runs against a serving source
    detect_ns: int = 150 * MS
    precopy_rounds: int = PRECOPY_ROUNDS
    precopy_round_ns: int = PRECOPY_ROUND_NS
    cutover_ns: int = CUTOVER_NS
    chunk_copy_ns: int = CHUNK_COPY_NS
    cold_chunk_copy_ns: int = COLD_CHUNK_COPY_NS

    @classmethod
    def quick(cls) -> "FleetRunConfig":
        """CI-sized run: short activation, ~2 s of simulated time."""
        return cls()

    @classmethod
    def full(cls) -> "FleetRunConfig":
        """Paper-scale activation (6.5 s) — heavy; use with workers."""
        return cls(spacing_ns=sec(8.0), tail_ns=sec(1.0),
                   activation_s=6.5, pace_ns=2 * MS, start_ns=500 * MS)


def plan_waves(fleet: FleetSpec, max_per_domain: int = 1) -> list[list[str]]:
    """Failure-domain-aware rolling schedule.

    Wave ``k`` takes the next ``max_per_domain`` not-yet-upgraded
    servers of *every* rack, so no wave ever has more than
    ``max_per_domain`` servers down in one failure domain, and every
    server appears in exactly one wave.
    """
    if max_per_domain < 1:
        raise ValueError("max_per_domain must be >= 1")
    waves: list[list[str]] = []
    depth = max(len(rack.servers) for rack in fleet.racks)
    k = 0
    while k * max_per_domain < depth:
        lo = k * max_per_domain
        wave = [
            s.name
            for rack in fleet.racks
            for s in rack.servers[lo:lo + max_per_domain]
        ]
        if wave:
            waves.append(wave)
        k += 1
    return waves


def _tenant_workers(tenant: TenantSpec) -> int:
    """Paced worker count scaled (deterministically) with demand."""
    return max(1, min(3, tenant.demand_iops // 60_000))


def _assignment(tenant: TenantSpec) -> TenantAssignment:
    qos = tenant.qos_class
    return TenantAssignment(
        name=tenant.name,
        qos=tenant.qos,
        capacity_bytes=tenant.capacity_bytes,
        read_fraction=tenant.read_fraction,
        block_bytes=tenant.block_bytes,
        workers=_tenant_workers(tenant),
        max_iops=qos.max_iops,
        max_mbps=qos.max_mbps,
        slo_availability=qos.slo_availability,
        slo_p99_us=qos.slo_p99_us,
    )


def _wave_availability(payloads: list[dict], lo_ns: int, hi_ns: int,
                       window_ns: int) -> float:
    """Mean over every tenant of its available-window fraction in range."""
    lo, hi = lo_ns // window_ns, hi_ns // window_ns
    fractions = []
    for payload in payloads:
        for tenant in payload["tenants"]:
            windows = tenant["windows"][lo:hi]
            if windows:
                fractions.append(
                    sum(1 for r in windows if r > 0.0) / len(windows))
    return sum(fractions) / len(fractions) if fractions else 1.0


def run_fleet(
    fleet: FleetSpec | None = None,
    tenants: tuple[TenantSpec, ...] | None = None,
    policy: str = "spread",
    faults: str | None = None,
    seed: int = 7,
    workers: int | None = None,
    config: FleetRunConfig | None = None,
) -> dict:
    """Place tenants, run the rolling upgrade, return the fleet report.

    ``workers`` fans the per-server simulations over processes; each
    server world is rebuilt from its own spec and seed, so the report
    is byte-identical for any worker count.
    """
    fleet = fleet or build_fleet()
    tenants = tuple(tenants) if tenants is not None else make_tenants(
        2 * len(fleet), seed=seed)
    config = config or FleetRunConfig.quick()

    placement = place(fleet, tenants, policy)
    waves = plan_waves(fleet, config.max_per_domain)
    run_ns = config.start_ns + len(waves) * config.spacing_ns + config.tail_ns
    wave_of = {name: k for k, wave in enumerate(waves) for name in wave}

    # an armed preset fires on the first tenant-hosting server, mid its
    # configured wave — deterministic, independent of worker count
    fault_server = None
    if faults is not None:
        hosting = [s.name for s in fleet.servers()
                   if placement.tenants_on(s.name)]
        if not hosting:
            raise ValueError("cannot arm faults on a fleet with no tenants")
        fault_server = hosting[0]
    fault_at_ns = (config.start_ns
                   + config.fault_wave * config.spacing_ns
                   + config.spacing_ns // 2)

    # migration/drain schedules are cut *before* the run, entirely from
    # the armed fault time and the evacuation plan, so every server
    # world executes a fixed script — the fan-out stays byte-identical
    # for any worker count
    if config.reaction not in ("none", "drain", "migrate"):
        raise ValueError(
            f"unknown reaction {config.reaction!r}; "
            "one of ['drain', 'migrate', 'none']")
    reaction = config.reaction if fault_server is not None else "none"
    migrate_out: dict[str, list[MigrationPlan]] = {}
    migrate_in: dict[str, list[MigrationArrival]] = {}
    planned_placement: Placement | None = None
    planned_moves: list[dict] = []
    if reaction != "none":
        react_at_ns = fault_at_ns + config.detect_ns
        planned_placement, planned_moves = evacuate(placement, fault_server)
        for move in planned_moves:
            tenant = placement.tenants[move["tenant"]]
            plan = MigrationPlan(
                tenant=tenant.name, mode=reaction, dest=move["to"],
                start_ns=react_at_ns,
                rounds=config.precopy_rounds,
                round_ns=config.precopy_round_ns,
                cutover_ns=config.cutover_ns,
                chunk_copy_ns=config.chunk_copy_ns,
                cold_chunk_copy_ns=config.cold_chunk_copy_ns,
            )
            migrate_out.setdefault(fault_server, []).append(plan)
            migrate_in.setdefault(move["to"], []).append(MigrationArrival(
                tenant=_assignment(tenant),
                serve_from_ns=plan.handover_ns(tenant.chunks),
                source=fault_server,
                mode=reaction,
            ))
    if reaction == "migrate":
        # planned waves get a warm-standby pre-copy round too, so the
        # ledger can tell planned primes from the unplanned migration
        departing = {m["tenant"] for m in planned_moves}
        for server in fleet.servers():
            up_at = config.start_ns + wave_of[server.name] * config.spacing_ns
            for t in sorted(placement.tenants_on(server.name),
                            key=lambda t: t.name):
                if t.name in departing:
                    continue
                migrate_out.setdefault(server.name, []).append(MigrationPlan(
                    tenant=t.name, mode="prime", dest="",
                    start_ns=max(0, up_at - config.precopy_round_ns),
                    rounds=1,
                    round_ns=config.precopy_round_ns,
                    cutover_ns=config.cutover_ns,
                    chunk_copy_ns=config.chunk_copy_ns,
                    cold_chunk_copy_ns=config.cold_chunk_copy_ns,
                ))

    specs = []
    for idx, server in enumerate(fleet.servers()):
        wave_k = wave_of[server.name]
        armed = faults if server.name == fault_server else None
        specs.append(ServerRunSpec(
            server=server.name,
            rack=server.rack,
            seed=seed * 100_003 + idx,
            num_ssds=server.num_ssds,
            tenants=tuple(
                _assignment(t)
                for t in sorted(placement.tenants_on(server.name),
                                key=lambda t: t.name)
            ),
            run_ns=run_ns,
            window_ns=config.window_ns,
            pace_ns=config.pace_ns,
            upgrade_at_ns=config.start_ns + wave_k * config.spacing_ns,
            activation_s=config.activation_s,
            fw_version=config.fw_version,
            faults=armed,
            fault_at_ns=fault_at_ns,
            migrate_out=tuple(migrate_out.get(server.name, ())),
            migrate_in=tuple(migrate_in.get(server.name, ())),
        ))

    payloads = parallel_map(run_server, specs, workers=workers)
    by_server = {p["server"]: p for p in payloads}

    wave_rows = []
    for k, wave in enumerate(waves):
        lo = config.start_ns + k * config.spacing_ns
        hi = lo + config.spacing_ns
        upgraded = [by_server[name] for name in wave]
        pauses = [u["io_pause_s"] for p in upgraded for u in p["upgrades"]]
        totals = [u["total_s"] for p in upgraded for u in p["upgrades"]]
        wave_rows.append({
            "wave": k,
            "servers": list(wave),
            "domains": sorted({by_server[n]["rack"] for n in wave}),
            "started_s": lo / 1e9,
            "fleet_availability": _wave_availability(
                payloads, lo, hi, config.window_ns),
            "avg_upgrade_total_s": sum(totals) / len(totals) if totals else 0.0,
            "avg_io_pause_s": sum(pauses) / len(pauses) if pauses else 0.0,
            "upgrades_ok": all(u["ok"] for p in upgraded
                               for u in p["upgrades"]),
        })

    # a migrated tenant's truth spans two servers: its source windows
    # and its destination (arrival) windows merge elementwise, so
    # availability sees the union of where it was actually served
    arrival_rows: dict[str, tuple[str, dict]] = {}
    for payload in payloads:
        for row in payload["arrivals"]:
            arrival_rows[row["tenant"]] = (payload["server"], row)

    # SLO accounting excludes each server's *planned* maintenance wave
    # (the SRE convention: scheduled upgrades spend no error budget);
    # raw availability still reports the planned dip.
    tenant_rows = []
    for payload in payloads:
        up_lo = payload["upgrade_at_ns"] // config.window_ns
        up_hi = (payload["upgrade_at_ns"] + config.spacing_ns) // config.window_ns
        for t in payload["tenants"]:
            home, migrated_from = payload["server"], None
            dest = arrival_rows.get(t["tenant"])
            if dest is not None:
                home, arow = dest
                migrated_from = payload["server"]
                windows = [a + b for a, b in zip(t["windows"], arow["windows"])]
                t = {**t, "windows": windows,
                     "ios": t["ios"] + arow["ios"],
                     "errors": t["errors"] + arow["errors"],
                     "p99_us": max(t["p99_us"], arow["p99_us"]),
                     "availability": (sum(1 for r in windows if r > 0.0)
                                      / len(windows)) if windows else 1.0}
            unplanned = [r for i, r in enumerate(t["windows"])
                         if not up_lo <= i < up_hi]
            unplanned_avail = (
                sum(1 for r in unplanned if r > 0.0) / len(unplanned)
                if unplanned else 1.0)
            budget = 1.0 - t["slo_availability"]
            unavail = 1.0 - unplanned_avail
            row = {
                "tenant": t["tenant"],
                "server": home,
                "qos": t["qos"],
                "ios": t["ios"],
                "errors": t["errors"],
                "availability": t["availability"],
                "unplanned_availability": unplanned_avail,
                "slo_availability": t["slo_availability"],
                "availability_met": unplanned_avail >= t["slo_availability"],
                "error_budget_consumed": unavail / budget if budget else 0.0,
                "p99_us": t["p99_us"],
                "slo_p99_us": t["slo_p99_us"],
                "p99_met": t["p99_us"] <= t["slo_p99_us"],
            }
            if migrated_from is not None:
                # migrated rows keep their merged window series: the
                # migrate-vs-drain experiments analyze the dip shape
                row["migrated_from"] = migrated_from
                row["windows"] = t["windows"]
            tenant_rows.append(row)
    tenant_rows.sort(key=lambda r: r["tenant"])

    # control-plane reaction to a surprise removal in the fault logs:
    # legacy "none" re-places on paper only; "drain"/"migrate" executed
    # their pre-cut schedules, so the ledger records what actually ran,
    # with planned primes kept apart from the unplanned migration
    maintenance: dict = {"drained": [], "moves": []}
    current: Placement = placement
    if reaction == "none":
        for payload in payloads:
            if "hot_remove" in payload["fault_kinds"]:
                current, moves = evacuate(current, payload["server"])
                maintenance["drained"].append(payload["server"])
                maintenance["moves"].extend(moves)
    else:
        current = planned_placement
        protocol = {m["tenant"]: m
                    for p in payloads for m in p["migrations"]
                    if m["mode"] != "prime"}
        maintenance["reaction"] = reaction
        maintenance["drained"] = [fault_server] if reaction == "drain" else []
        maintenance["migrated"] = [fault_server] if reaction == "migrate" else []
        maintenance["planned_primes"] = sum(
            1 for p in payloads for m in p["migrations"]
            if m["mode"] == "prime")
        for mv in planned_moves:
            move = {**mv, "mode": reaction}
            stats = protocol.get(mv["tenant"])
            if stats is not None:
                move.update(
                    start_ns=stats["start_ns"],
                    handover_ns=stats["handover_ns"],
                    chunks=stats["chunks"],
                    precopy_rounds=stats["rounds"],
                    final_dirty=stats["final_dirty"],
                )
            maintenance["moves"].append(move)

    availabilities = [r["availability"] for r in tenant_rows]
    return {
        "fleet": {**fleet.describe(), "tenants": len(tenants),
                  "policy": policy, "seed": seed, "faults": faults,
                  "waves": len(waves), "run_s": run_ns / 1e9,
                  "activation_s": config.activation_s},
        "placement": placement.describe(),
        "waves": wave_rows,
        "tenants": tenant_rows,
        "servers": [{
            "server": p["server"], "rack": p["rack"], "ios": p["ios"],
            "errors": p["errors"], "upgrades": p["upgrades"],
            "faults_injected": p["faults_injected"],
            "fault_kinds": p["fault_kinds"],
            "bmsc_recoveries": p["bmsc_recoveries"],
            "sim_events": p["sim_events"],
        } for p in payloads],
        "maintenance": maintenance,
        "summary": {
            "fleet_availability": (sum(availabilities) / len(availabilities)
                                   if availabilities else 1.0),
            "servers_upgraded": sum(len(w["servers"]) for w in wave_rows),
            "upgrades_ok": all(w["upgrades_ok"] for w in wave_rows),
            "ios": sum(p["ios"] for p in payloads),
            "errors": sum(p["errors"] for p in payloads),
            "slo_availability_violations": sum(
                1 for r in tenant_rows if not r["availability_met"]),
            "slo_p99_violations": sum(
                1 for r in tenant_rows if not r["p99_met"]),
            "drained_servers": len(maintenance["drained"]),
            "migrated_servers": len(maintenance.get("migrated", [])),
            "migrated_tenants": sum(
                1 for mv in maintenance["moves"]
                if mv.get("mode") == "migrate"),
        },
    }


def render_report(report: dict) -> str:
    """Human-readable fleet report (the CLI's non-JSON output)."""
    f = report["fleet"]
    lines = [
        f"fleet: {f['servers']} servers / {f['racks']} racks / "
        f"{f['ssds']} SSDs, {f['tenants']} tenants, policy={f['policy']}, "
        f"seed={f['seed']}"
        + (f", faults={f['faults']}" if f["faults"] else ""),
        f"rolling upgrade: {f['waves']} waves over {f['run_s']:.1f}s "
        f"simulated (activation {f['activation_s']:.2f}s)",
        "",
        "  wave | servers | domains | availability | avg total s | avg pause s",
    ]
    for w in report["waves"]:
        lines.append(
            f"  {w['wave']:>4} | {len(w['servers']):>7} | "
            f"{len(w['domains']):>7} | {w['fleet_availability']:>12.1%} | "
            f"{w['avg_upgrade_total_s']:>11.2f} | {w['avg_io_pause_s']:>11.2f}")
    s = report["summary"]
    lines += [
        "",
        f"fleet availability {s['fleet_availability']:.2%} over the whole "
        f"run; {s['ios']} tenant I/Os, {s['errors']} errors",
        f"SLO violations: {s['slo_availability_violations']} availability, "
        f"{s['slo_p99_violations']} p99 "
        f"(of {len(report['tenants'])} tenants)",
    ]
    if s["drained_servers"]:
        m = report["maintenance"]
        lines.append(
            f"maintenance: drained {', '.join(m['drained'])} after surprise "
            f"hot-removal; re-placed {len(m['moves'])} tenant(s): "
            + ", ".join(f"{mv['tenant']}->{mv['to']}" for mv in m["moves"]))
    if s.get("migrated_servers"):
        m = report["maintenance"]
        lines.append(
            f"maintenance: live-migrated {', '.join(m['migrated'])} after "
            f"surprise hot-removal ({len(m['moves'])} tenant(s), "
            f"{m.get('planned_primes', 0)} planned prime round(s)): "
            + ", ".join(f"{mv['tenant']}->{mv['to']}" for mv in m["moves"]))
    return "\n".join(lines)
