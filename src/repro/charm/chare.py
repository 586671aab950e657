"""Chare base class and proxies."""

from __future__ import annotations

from typing import Any, Optional

import numpy as np

from repro.converse.scheduler import Message


def _sz(v: Any) -> int:
    """Structural size of one marshalled value (module-level: a recursive
    local function would be a function/cell cycle built on every call)."""
    if v is None or isinstance(v, bool):
        return 1
    if isinstance(v, (int, float, complex)):
        return 8
    if isinstance(v, str):
        return len(v)
    if isinstance(v, (bytes, bytearray)):
        return len(v)
    if isinstance(v, np.ndarray):
        return int(v.nbytes)
    if isinstance(v, (list, tuple, set)):
        return 16 + sum(_sz(x) for x in v)
    if isinstance(v, dict):
        return 16 + sum(_sz(k) + _sz(x) for k, x in v.items())
    return 64


def estimate_size(args: tuple, kwargs: dict) -> int:
    """Wire-size estimate for marshalled entry-method arguments.

    Benchmarks that must control message size exactly pass ``_size=``;
    everything else gets a structural estimate (the real runtime's PUP
    sizing, approximated).
    """
    return 16 + _sz(list(args)) + _sz(kwargs)


class Chare:
    """Base class for array/group elements.

    Set by the runtime before any entry method runs:

    * ``self.charm`` — the :class:`~repro.charm.runtime.Charm` instance;
    * ``self.thisIndex`` — this element's index;
    * ``self.thisProxy`` — proxy to the whole collection;
    * ``self.pe`` — the hosting :class:`~repro.converse.scheduler.PE`
      (changes on migration).
    """

    charm = None
    thisIndex: Any = None
    thisProxy: "ArrayProxy" = None
    pe = None
    #: collection id, set at insertion
    _aid: int = -1

    # -- conveniences available inside entry methods --------------------------
    def charge(self, seconds: float) -> None:
        """Account ``seconds`` of application computation."""
        self.pe.charge(seconds, "useful")

    def now(self) -> float:
        """Current simulated time on this PE."""
        return self.pe.vtime

    @property
    def my_pe(self) -> int:
        return self.pe.rank

    def contribute(self, value: Any, op: str, target) -> None:
        """Contribute to the collection-wide reduction (see paper's NAMD
        load/energy reductions).  ``target`` is a bound proxy method, e.g.
        ``self.thisProxy[0].report``."""
        self.charm._contribute(self, value, op, target)

    def migrate_to(self, new_pe: int, state_bytes: int = 1024) -> None:
        """Move this element to another PE (measurement-based LB uses this)."""
        self.charm._migrate(self, new_pe, state_bytes)

    # -- GPU conveniences ------------------------------------------------------
    @property
    def gpu(self):
        """The accelerator serving this element's PE (affinity-mapped).

        Raises :class:`~repro.errors.TopologyError` on a machine built
        with ``gpus_per_node=0``.
        """
        return self.charm.conv.machine.gpu_of_pe(self.pe.rank)

    def device_alloc(self, nbytes: int):
        """Allocate a device buffer on this PE's GPU, charging the
        driver's cudaMalloc-style cost to the PE."""
        cfg = self.pe.node.config
        self.pe.charge(cfg.gpu_malloc_cpu, "overhead")
        return self.gpu.alloc(nbytes)

    def device_free(self, buf) -> None:
        """Free a device buffer on this PE's GPU (cudaFree cost)."""
        cfg = self.pe.node.config
        self.pe.charge(cfg.gpu_free_cpu, "overhead")
        self.gpu.free(buf)

    def launch_kernel(self, seconds: float,
                      then: Optional[str] = None) -> float:
        """Launch a kernel on this PE's GPU; returns its completion time.

        The launch charges ``gpu_kernel_launch_cpu`` to the PE and
        returns immediately — compute overlaps with whatever messages
        the element keeps scheduling.  ``then`` names an entry method of
        *this element* invoked locally when the kernel completes (the
        completion-callback idiom of Choi et al.'s GPU manager).
        """
        cfg = self.pe.node.config
        self.pe.charge(cfg.gpu_kernel_launch_cpu, "overhead")
        done = self.gpu.launch_kernel(self.pe.vtime, seconds)
        if then is not None:
            method = then  # bind by name: survives element migration
            self.charm.start(
                lambda _pe, elem=self, m=method: getattr(elem, m)(),
                pe=self.pe.rank, at=done)
        return done


#: proxies build their refs with this and two slot stores: an ``__init__``
#: would be a frame of every proxy call
_new = object.__new__


def _send_entry(name: str):
    """``ElementRef.<name>`` and ``ArrayProxy.<name>``, made by the name's
    first lookup: size the arguments, find the element's home, count the
    send for quiescence and hand Converse the message.  A broadcast
    (``index`` None) and a call made outside any handler (nothing to
    charge the send to) go to :meth:`Charm._invoke`."""

    def entry(ref: "ElementRef", *args: Any, _size: Optional[int] = None,
              _device: Any = False, **kwargs: Any) -> None:
        proxy = ref.proxy
        charm = proxy.charm
        idx = ref.index
        pe = charm._current_pe
        if idx is None or pe is None:
            return charm._invoke(proxy.aid, name, args, kwargs, _size,
                                 _device)
        nbytes = estimate_size(args, kwargs) if _size is None else _size
        coll = charm.collections[proxy.aid]
        dst = coll.location.get(idx)
        if dst is None:
            dst = coll.home_of(idx)  # raises: no such element
        charm.app_sends += 1
        qd = charm._qd
        if qd is not None:
            qd.notify_send(pe.rank)
        charm.conv.send(pe, dst, Message(
            charm._h_entry, pe.rank, dst, nbytes,
            ("inv", proxy.aid, idx, name, args, kwargs), device=_device))

    entry.__name__ = entry.__qualname__ = name
    return entry


class ElementRef:
    """``proxy[i]`` — reference to one element.  An entry name is a
    function on the class, made once by ``__getattr__`` and then found
    without it (DESIGN §6, "first lookup reaches")."""

    __slots__ = ("proxy", "index")
    #: attributes that are state, never entry names (read before set)
    _state = ("proxy", "index")

    def __getattr__(self, name: str):
        if name.startswith("_") or name in self._state:
            raise AttributeError(name)
        fn = _send_entry(name)
        setattr(type(self), name, fn)
        return fn.__get__(self)


class ArrayProxy:
    """Proxy to a chare collection; indexing yields element refs and
    attribute access on the proxy itself is a broadcast: the proxy is its
    own ref, with no index."""

    index = None
    proxy = property(lambda self: self)
    _state = ("charm", "aid", "name")
    __getattr__ = ElementRef.__getattr__

    def __init__(self, charm, aid: int, name: str):
        self.charm = charm
        self.aid = aid
        self.name = name

    def __getitem__(self, index: Any) -> ElementRef:
        ref = _new(ElementRef)
        ref.proxy = self
        ref.index = index
        return ref

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ArrayProxy {self.name}>"
