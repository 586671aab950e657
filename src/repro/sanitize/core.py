"""Lifecycle sanitizer for the simulated machine (opt-in, off by default).

The paper's three optimizations (rendezvous GET, persistent channels, the
memory pool — §IV) all work by transferring *ownership* of registered
buffers between runtime layers, which is exactly where RDMA runtimes
historically accumulate silent lifecycle bugs (Wyckoff & Wu's
registration-cache pitfalls; the uDREG hazards Pritchard et al. catalogue).
This module is the ASan/leak-detector analogue for our simulation: it
shadows every registered memory region, pool block, SMSG message and its
mailbox credit, and rendezvous-capable RDMA transaction from creation to
retirement, and reports violations with virtual-time provenance.

Design rules:

* **Observer only.**  The hooked layers call narrow ``on_*`` methods; the
  sanitizer never mutates simulation state, draws RNG, or schedules
  events, so enabling it cannot change simulated results (the benchmark
  checksums stay bit-identical with it on or off).
* **Zero cost when off.**  Every hook site is guarded by an
  ``is None`` check on ``machine.sanitizer`` / ``engine.sanitizer`` —
  the same pattern as ``machine.faults``.
* **One owner per resource.**  A registration or pool block is either
  *transient* (owned by exactly one in-flight protocol step, retired when
  that step completes) or *rooted* (owned by long-lived infrastructure:
  pool arenas, persistent-channel windows, registration-cache entries).
  Live non-rooted regions at :meth:`Sanitizer.check_teardown` are leaks.

Violation classes (``Violation.kind``):

``use-after-free-rdma``
    a deregister/free overlapping an in-flight FMA/BTE transaction, or a
    post naming a deregistered handle / freed pool memory;
``double-deregister`` / ``double-free`` / ``foreign-pool-free``
    retiring a resource twice, or returning a pool block to a pool that
    does not own it;
``registration-leak`` / ``pool-leak``
    live, non-rooted resources at an explicit teardown check (or, for
    pool blocks, held by a machine layer at quiescence);
``credit-leak``
    SMSG mailbox credit held by a connection that the shadow's
    sent/consumed/dropped accounting cannot explain at quiescence;
``undelivered-message``
    an SMSG sent but neither consumed nor dropped once the event heap
    drains (it never arrived, or its consumer did not consume it), or an
    FMA/BTE post that never completed;
``pinned-eviction``
    a registration-cache entry dropped (or about to be) while pins mark
    it in use by an in-flight transaction;
``stuck-persistent``
    a persistent channel with queued sends or an unfinished teardown at
    quiescence;
``device-use-after-free``
    a device buffer freed twice, or posted for communication after it
    was freed;
``foreign-device-free``
    a device buffer returned to a GPU that does not own it (the classic
    multi-GPU affinity bug);
``copy-credit-leak``
    a copy-engine queue credit taken by ``begin_copy`` and never retired
    by ``finish_copy`` once the event heap drains;
``device-leak``
    a device buffer still live at an explicit teardown check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro._env import env_flag
from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.machine import Machine


class SanitizeViolation(ReproError):
    """Raised by :func:`assert_clean` when any sanitizer holds reports."""


def sanitize_requested() -> bool:
    """True when the ``REPRO_SANITIZE`` environment variable enables us."""
    return env_flag("REPRO_SANITIZE")


@dataclass(frozen=True)
class Violation:
    """One detected lifecycle violation, with virtual-time provenance."""

    kind: str
    #: simulated time at detection
    time: float
    #: which resource / layer ("pool[pe3]", "persistent[2].src", ...)
    where: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - formatting
        return f"[{self.kind}] t={self.time:.9f} {self.where}: {self.detail}"


# --------------------------------------------------------------------- #
# shadow records — each holds a reference to the real object so object
# ids stay stable (no id reuse while the shadow is alive)
# --------------------------------------------------------------------- #
class _Region:
    """Shadow of one registered memory region."""

    __slots__ = ("handle", "node_id", "addr", "end", "created_at",
                 "retired_at", "root")

    def __init__(self, handle: Any, now: float):
        self.handle = handle
        self.node_id = handle.node_id
        self.addr = handle.addr
        self.end = handle.addr + handle.length
        self.created_at = now
        self.retired_at: Optional[float] = None
        #: non-None marks a rooted (long-lived, intentionally held) region
        self.root: Optional[str] = None


class _Block:
    """Shadow of one pool block from alloc to free."""

    __slots__ = ("block", "pool_name", "node_id", "addr", "end", "created_at",
                 "retired_at")

    def __init__(self, block: Any, pool_name: str, now: float):
        self.block = block
        self.pool_name = pool_name
        self.node_id = block.node_id
        self.addr = block.addr
        self.end = block.addr + block.size
        self.created_at = now
        self.retired_at: Optional[float] = None


class _Tx:
    """Shadow of one in-flight FMA/BTE transaction."""

    __slots__ = ("desc_id", "kind", "spans", "started_at")

    def __init__(self, desc_id: int, kind: str,
                 spans: tuple[tuple[int, int, int], ...], now: float):
        self.desc_id = desc_id
        self.kind = kind
        #: ((node_id, lo, hi), ...) address ranges the transaction touches
        self.spans = spans
        self.started_at = now


class _Msg:
    """Shadow of one SMSG message from send to consume/drop."""

    __slots__ = ("msg", "sent_at", "arrived")

    def __init__(self, msg: Any, now: float):
        self.msg = msg
        self.sent_at = now
        self.arrived = False


class _Dev:
    """Shadow of one device-memory buffer from alloc to free."""

    __slots__ = ("buf", "gpu_id", "node_id", "nbytes", "created_at",
                 "retired_at")

    def __init__(self, buf: Any, now: float):
        self.buf = buf
        self.gpu_id = buf.gpu.gpu_id
        self.node_id = buf.gpu.node_id
        self.nbytes = buf.nbytes
        self.created_at = now
        self.retired_at: Optional[float] = None


class _Copy:
    """Shadow of one outstanding copy-engine queue credit."""

    __slots__ = ("engine", "token", "nbytes", "posted_at")

    def __init__(self, engine: Any, token: int, nbytes: int, now: float):
        self.engine = engine
        self.token = token
        self.nbytes = nbytes
        self.posted_at = now


# --------------------------------------------------------------------- #
# process-wide registry (for the pytest guard and run_all --sanitize)
# --------------------------------------------------------------------- #
_REGISTRY: list["Sanitizer"] = []


def active_sanitizers() -> list["Sanitizer"]:
    """All sanitizers created since the last :func:`clear_registry`."""
    return list(_REGISTRY)


def clear_registry() -> None:
    """Forget tracked sanitizers (each test / benchmark starts clean)."""
    _REGISTRY.clear()


def collect() -> list[Violation]:
    """All violations recorded by every registered sanitizer."""
    return [v for s in _REGISTRY for v in s.violations]


def assert_clean(context: str = "") -> None:
    """Run teardown checks on every registered sanitizer; raise if dirty."""
    for san in _REGISTRY:
        san.check_teardown()
    problems = collect()
    if problems:
        where = f" ({context})" if context else ""
        lines = "\n".join(f"  {v}" for v in problems)
        raise SanitizeViolation(
            f"lifecycle sanitizer reported {len(problems)} violation(s)"
            f"{where}:\n{lines}"
        )


class Sanitizer:
    """Shadow-state tracker for one :class:`~repro.hardware.machine.Machine`.

    Installed by the machine itself when ``MachineConfig.sanitize`` or
    ``REPRO_SANITIZE=1`` asks for it; every hooked layer reaches it as
    ``machine.sanitizer`` (or ``engine.sanitizer``) and skips all calls
    when it is ``None``.
    """

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self._eng = machine.engine
        self.violations: list[Violation] = []
        self._seen: set[tuple[str, str, str]] = set()
        #: id(handle) -> region shadow (live and retired; retired entries
        #: are kept so double-deregisters can cite the first retire time)
        self._regions: dict[int, _Region] = {}
        #: id(block) -> live pool-block shadow
        self._blocks: dict[int, _Block] = {}
        #: id(block) -> retired pool-block shadow (double-free provenance)
        self._freed_blocks: dict[int, _Block] = {}
        #: token -> in-flight transaction shadow
        self._txs: dict[int, _Tx] = {}
        self._tx_seq = 0
        #: id(msg) -> outstanding SMSG message shadow
        self._msgs: dict[int, _Msg] = {}
        #: SMSG fabrics whose credit books we audit at quiescence
        self._fabrics: list[Any] = []
        #: id(buf) -> live device-buffer shadow
        self._dev: dict[int, _Dev] = {}
        #: id(buf) -> retired device-buffer shadow (use-after-free provenance)
        self._freed_dev: dict[int, _Dev] = {}
        #: (id(copy engine), token) -> outstanding copy-credit shadow
        self._copies: dict[tuple[int, int], _Copy] = {}
        #: layer-supplied quiescence scans, run at every engine drain
        self._quiescence_checks: list[Callable[["Sanitizer"], None]] = []
        # lifetime counters (diagnostics / DESIGN.md examples)
        self.regions_created = 0
        self.regions_retired = 0
        self.blocks_created = 0
        self.blocks_retired = 0
        self.txs_started = 0
        self.txs_retired = 0
        self.msgs_sent = 0
        self.msgs_resolved = 0
        self.dev_allocs = 0
        self.dev_frees = 0
        self.copies_posted = 0
        self.copies_retired = 0
        _REGISTRY.append(self)

    # -- reporting ---------------------------------------------------------
    def report(self, kind: str, where: str, detail: str) -> None:
        """Record one violation (deduplicated on the full triple)."""
        key = (kind, where, detail)
        if key in self._seen:
            return
        self._seen.add(key)
        self.violations.append(Violation(kind, self._eng.now, where, detail))
        obs = getattr(self.machine, "observer", None)
        if obs is not None:
            # a violation is a flight-recorder trigger: dump the recent
            # runtime event ring for postmortem analysis
            obs.on_violation(kind, where, detail, self._eng.now)

    # -- registered regions ------------------------------------------------
    def on_register(self, handle: Any) -> None:
        self.regions_created += 1
        self._regions[id(handle)] = _Region(handle, self._eng.now)

    def on_deregister(self, handle: Any) -> None:
        region = self._regions.get(id(handle))
        if region is None:
            return  # registered before this sanitizer existed; not ours
        where = self._region_name(region)
        if region.retired_at is not None:
            self.report(
                "double-deregister", where,
                f"handle already deregistered at t={region.retired_at:.9f}")
            return
        self._check_tx_overlap(region.node_id, region.addr, region.end,
                               f"deregister of {where}")
        region.retired_at = self._eng.now
        self.regions_retired += 1

    def root_region(self, handle: Any, why: str) -> None:
        """Mark a registration as intentionally long-lived (not a leak)."""
        region = self._regions.get(id(handle))
        if region is not None:
            region.root = why

    @staticmethod
    def _region_name(region: _Region) -> str:
        root = f" ({region.root})" if region.root else ""
        return (f"region[node={region.node_id} "
                f"{region.addr:#x}+{region.end - region.addr}]{root}")

    # -- pool blocks -------------------------------------------------------
    def on_pool_alloc(self, pool: Any, block: Any) -> None:
        self.blocks_created += 1
        self._blocks[id(block)] = _Block(block, pool.name, self._eng.now)

    def on_pool_free(self, pool: Any, block: Any) -> None:
        shadow = self._blocks.pop(id(block), None)
        if shadow is None:
            return  # allocated before this sanitizer existed; not ours
        self._check_tx_overlap(
            shadow.node_id, shadow.addr, shadow.end,
            f"free of pool block {shadow.addr:#x}+{shadow.end - shadow.addr} "
            f"({shadow.pool_name})")
        shadow.retired_at = self._eng.now
        self._freed_blocks[id(block)] = shadow
        self.blocks_retired += 1

    def on_pool_double_free(self, pool: Any, block: Any) -> None:
        shadow = self._freed_blocks.get(id(block))
        freed = (f"first freed at t={shadow.retired_at:.9f}" if shadow
                 else "already freed")
        self.report("double-free", pool.name,
                    f"pool block {block.addr:#x}+{block.size} {freed}")

    def on_pool_foreign_free(self, pool: Any, block: Any) -> None:
        shadow = self._blocks.get(id(block))
        owner = shadow.pool_name if shadow else "an unknown pool"
        self.report(
            "foreign-pool-free", pool.name,
            f"pool block {block.addr:#x}+{block.size} belongs to {owner}, "
            f"freed into {pool.name}")

    # -- FMA/BTE transactions ---------------------------------------------
    def on_rdma_check(self, desc: Any, initiator_node: int) -> None:
        """Post-time use-after-free screen (before the table validates)."""
        for side, handle, addr in (
                ("local", desc.local_mem, desc.local_addr),
                ("remote", desc.remote_mem, desc.remote_addr)):
            region = self._regions.get(id(handle))
            if region is not None and region.retired_at is not None:
                self.report(
                    "use-after-free-rdma",
                    f"post#{desc.id}",
                    f"{desc.post_type.name} {side} side names "
                    f"{self._region_name(region)} deregistered at "
                    f"t={region.retired_at:.9f}")
                continue
            if addr is None:
                continue
            self._check_pool_coverage(handle, addr, addr + desc.length,
                                      f"post#{desc.id} {side} side")

    def _check_pool_coverage(self, handle: Any, lo: int, hi: int,
                             what: str) -> None:
        """A span inside a pool arena must be backed by a live pool block."""
        region = self._regions.get(id(handle))
        if region is None or region.root is None \
                or not region.root.startswith("pool-arena"):
            return
        for shadow in self._blocks.values():
            if (shadow.node_id == region.node_id
                    and shadow.addr <= lo and hi <= shadow.end):
                return
        self.report(
            "use-after-free-rdma", what,
            f"[{lo:#x}+{hi - lo}] lies in {region.root} but no live pool "
            f"block covers it (freed or never allocated)")

    def on_rdma_post(self, desc: Any, initiator_node: int) -> int:
        """Start shadowing one transaction; returns a retire token."""
        self._tx_seq += 1
        token = self._tx_seq
        spans = (
            (desc.local_mem.node_id, desc.local_addr,
             desc.local_addr + desc.length),
            (desc.remote_mem.node_id, desc.remote_addr,
             desc.remote_addr + desc.length),
        )
        self._txs[token] = _Tx(desc.id, desc.post_type.name, spans,
                               self._eng.now)
        self.txs_started += 1
        return token

    def on_rdma_retire(self, token: int, t: float) -> None:
        if self._txs.pop(token, None) is not None:
            self.txs_retired += 1

    def _check_tx_overlap(self, node_id: int, lo: int, hi: int,
                          what: str) -> None:
        for tx in self._txs.values():
            for nid, a, b in tx.spans:
                if nid == node_id and a < hi and lo < b:
                    self.report(
                        "use-after-free-rdma", what,
                        f"overlaps in-flight {tx.kind} post#{tx.desc_id} "
                        f"[{a:#x}+{b - a}] started at t={tx.started_at:.9f}")
                    break

    # -- SMSG messages and mailbox credit ----------------------------------
    def register_fabric(self, fabric: Any) -> None:
        self._fabrics.append(fabric)

    def on_smsg_send(self, msg: Any) -> None:
        self.msgs_sent += 1
        self._msgs[id(msg)] = _Msg(msg, self._eng.now)

    def on_smsg_arrive(self, msg: Any) -> None:
        shadow = self._msgs.get(id(msg))
        if shadow is not None:
            shadow.arrived = True

    def on_smsg_consume(self, msg: Any) -> None:
        if self._msgs.pop(id(msg), None) is not None:
            self.msgs_resolved += 1

    def on_smsg_drop(self, msg: Any) -> None:
        """Fault injector ate the delivery; credit was reclaimed."""
        if self._msgs.pop(id(msg), None) is not None:
            self.msgs_resolved += 1

    # -- device buffers and copy-engine credits ----------------------------
    @staticmethod
    def _dev_name(shadow: "_Dev") -> str:
        return (f"gpu{shadow.gpu_id}[node={shadow.node_id} "
                f"{shadow.buf.block.addr:#x}+{shadow.nbytes}]")

    def on_device_alloc(self, gpu: Any, buf: Any) -> None:
        self.dev_allocs += 1
        self._dev[id(buf)] = _Dev(buf, self._eng.now)

    def on_device_free(self, gpu: Any, buf: Any) -> None:
        shadow = self._dev.pop(id(buf), None)
        if shadow is None:
            return  # allocated before this sanitizer existed; not ours
        shadow.retired_at = self._eng.now
        self._freed_dev[id(buf)] = shadow
        self.dev_frees += 1

    def on_device_double_free(self, gpu: Any, buf: Any) -> None:
        shadow = self._freed_dev.get(id(buf))
        freed = (f"first freed at t={shadow.retired_at:.9f}" if shadow
                 else "already freed")
        self.report("device-use-after-free", f"gpu{gpu.gpu_id}",
                    f"device buffer {buf.block.addr:#x}+{buf.nbytes} {freed}")

    def on_device_foreign_free(self, gpu: Any, buf: Any) -> None:
        self.report(
            "foreign-device-free", f"gpu{gpu.gpu_id}",
            f"device buffer {buf.block.addr:#x}+{buf.nbytes} belongs to "
            f"gpu{buf.gpu.gpu_id}@node{buf.gpu.node_id}, freed on "
            f"gpu{gpu.gpu_id}@node{gpu.node_id}")

    def on_device_use(self, buf: Any, what: str) -> None:
        """Screen a device buffer named by a communication post."""
        shadow = self._freed_dev.get(id(buf))
        if shadow is not None:
            self.report(
                "device-use-after-free", what,
                f"names device buffer {self._dev_name(shadow)} freed at "
                f"t={shadow.retired_at:.9f}")
        elif buf.freed and id(buf) not in self._dev:
            self.report(
                "device-use-after-free", what,
                f"names a freed device buffer on gpu{buf.gpu.gpu_id}")

    def on_copy_post(self, engine: Any, token: int, nbytes: int,
                     now: float) -> None:
        self.copies_posted += 1
        self._copies[(id(engine), token)] = _Copy(engine, token, nbytes, now)

    def on_copy_retire(self, engine: Any, token: int) -> None:
        if self._copies.pop((id(engine), token), None) is not None:
            self.copies_retired += 1

    # -- layer plug-in checks ----------------------------------------------
    def add_quiescence_check(self, fn: Callable[["Sanitizer"], None]) -> None:
        """Register a scan to run at every engine drain (machine layers)."""
        self._quiescence_checks.append(fn)

    # -- drain / teardown checks -------------------------------------------
    def on_engine_drained(self, now: float) -> None:
        """Conservation checks at quiescence (the event heap is empty).

        Every SMSG sent must be consumed or dropped by now: its arrival
        went to the fabric's consumer, so one still outstanding is lost.
        """
        for shadow in self._msgs.values():
            msg = shadow.msg
            self.report(
                "undelivered-message",
                f"smsg[{msg.src_pe}->{msg.dst_pe}]",
                f"tag={msg.tag} nbytes={msg.nbytes} sent at "
                f"t={shadow.sent_at:.9f} "
                + ("arrived but was never consumed" if shadow.arrived
                   else "never arrived and was never dropped"))
        self._check_credit_books()
        for tx in self._txs.values():
            self.report(
                "undelivered-message",
                f"post#{tx.desc_id}",
                f"{tx.kind} posted at t={tx.started_at:.9f} never completed")
        for copy in self._copies.values():
            ce = copy.engine
            self.report(
                "copy-credit-leak",
                f"gpu{ce.gpu_id}.{ce.direction}",
                f"queue credit for a {copy.nbytes}-byte copy posted at "
                f"t={copy.posted_at:.9f} never retired")
        for fn in self._quiescence_checks:
            fn(self)

    def _check_credit_books(self) -> None:
        # shadow credit per connection: every outstanding message holds
        # its payload + header credit from send until consume/drop
        shadow_credit: dict[tuple[int, int], int] = {}
        for rec in self._msgs.values():
            key = (rec.msg.src_pe, rec.msg.dst_pe)
            shadow_credit[key] = shadow_credit.get(key, 0) + rec.msg.credit
        for fabric in self._fabrics:
            for src, dst, held in fabric.pairs():
                expect = shadow_credit.get((src, dst), 0)
                if held != expect:
                    self.report(
                        "credit-leak",
                        f"smsg[{src}->{dst}]",
                        f"connection holds {held} B of mailbox "
                        f"credit but outstanding messages account for "
                        f"{expect} B")

    def leak_check(self) -> None:
        """Flag live, non-rooted resources (explicit teardown semantics)."""
        for region in self._regions.values():
            if region.retired_at is None and region.root is None:
                self.report(
                    "registration-leak", self._region_name(region),
                    f"registered at t={region.created_at:.9f}, never "
                    f"deregistered and not rooted by any owner")
        for shadow in self._blocks.values():
            self.report(
                "pool-leak", shadow.pool_name,
                f"pool block {shadow.addr:#x}+{shadow.end - shadow.addr} "
                f"allocated at t={shadow.created_at:.9f} never freed")
        for dev in self._dev.values():
            self.report(
                "device-leak", self._dev_name(dev),
                f"device buffer allocated at t={dev.created_at:.9f} "
                f"never freed")

    def check_teardown(self) -> list[Violation]:
        """Full end-of-run audit: quiescence conservation + leak checks."""
        self.on_engine_drained(self._eng.now)
        self.leak_check()
        return self.violations

    # -- introspection -----------------------------------------------------
    def stats(self) -> dict[str, int]:
        return {
            "regions_created": self.regions_created,
            "regions_retired": self.regions_retired,
            "blocks_created": self.blocks_created,
            "blocks_retired": self.blocks_retired,
            "txs_started": self.txs_started,
            "txs_retired": self.txs_retired,
            "msgs_sent": self.msgs_sent,
            "msgs_resolved": self.msgs_resolved,
            "dev_allocs": self.dev_allocs,
            "dev_frees": self.dev_frees,
            "copies_posted": self.copies_posted,
            "copies_retired": self.copies_retired,
            "violations": len(self.violations),
        }

    def render(self) -> str:
        if not self.violations:
            return "sanitizer: clean"
        return "\n".join(str(v) for v in self.violations)

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<Sanitizer machine={self.machine!r} "
                f"violations={len(self.violations)}>")
