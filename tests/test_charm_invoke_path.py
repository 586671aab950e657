"""The proxy call and the entry delivery, after they were flattened.

``proxy[i].m(...)`` used to walk ``__getitem__`` → ``ElementRef.__init__``
→ ``__getattr__`` → ``BoundMethod.__init__`` → ``__call__`` →
``Charm._invoke``; the point-to-point body now lives in
``BoundMethod.__call__`` and the hit path of the delivery in
``Charm._entry_handler``.  The property test holds the new send to the old
one — ``_parent_invoke`` below is ``Charm._invoke`` as it stood before,
frozen here — and the rest walks the branches the short path steps past.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.charm import Chare, Charm
from repro.charm.chare import BoundMethod, ElementRef, estimate_size
from repro.converse.quiescence import QuiescenceDetector
from repro.converse.scheduler import Message
from repro.errors import CharmError
from repro.hardware.config import tiny as tiny_config
from repro.lrts.factory import make_runtime

N_PES, N_ELEMS = 8, 12


class Cell(Chare):
    def __init__(self):
        self.got = []

    def take(self, *args, **kwargs):
        self.got.append((args, kwargs))

    def total(self, value):
        self.got.append(value)

    def give(self):
        self.contribute(1, "sum", self.thisProxy[0].total)


def _runtime(n_pes=N_PES, n_elems=N_ELEMS, cores_per_node=4):
    conv, _ = make_runtime(n_pes=n_pes,
                           config=tiny_config(cores_per_node=cores_per_node))
    charm = Charm(conv)
    arr = charm.create_array(Cell, n_elems, map="round_robin")
    return charm, conv, arr, charm.collections[arr.aid]


def _capture_sends(conv):
    """Replace ``conv.send`` with a recorder: ``[(src rank, dst, msg)]``."""
    sent = []
    conv.send = lambda pe, dst, msg: sent.append((pe.rank, dst, msg))
    return sent


def _parent_invoke(charm, aid, idx, method, args, kwargs, size, prio,
                   device=False):
    """The point-to-point half of ``Charm._invoke`` before the flatten."""
    pe = charm._require_pe()
    nbytes = estimate_size(args, kwargs) if size is None else size
    coll = charm.collections[aid]
    dst = coll.home_of(idx)
    charm.app_sends += 1
    if charm._qd is not None:
        charm._qd.notify_send(pe.rank)
    charm.conv.send(pe, dst, Message(
        charm._h_entry, pe.rank, dst, nbytes,
        payload=("inv", aid, idx, method, args, kwargs), prio=prio,
        device=device))


_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2**40, 2**40)
    | st.floats(allow_nan=False) | st.text(max_size=8) | st.binary(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner, inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=6)


@settings(max_examples=150, deadline=None)
@given(args=st.lists(_values, max_size=3).map(tuple),
       kwargs=st.dictionaries(st.sampled_from(["a", "b", "size", "prio"]),
                              _values, max_size=3),
       size=st.none() | st.integers(0, 4 * 1024 * 1024),
       prio=st.none() | st.integers(-5, 5),
       device=st.booleans(),
       src=st.integers(0, N_PES - 1),
       idx=st.integers(0, N_ELEMS - 1),
       with_qd=st.booleans())
def test_proxy_call_sends_what_the_parent_invoke_sent(
        args, kwargs, size, prio, device, src, idx, with_qd):
    charm, conv, arr, coll = _runtime()
    if with_qd:
        charm._qd = QuiescenceDetector(conv)
    sent = _capture_sends(conv)
    charm._current_pe = conv.pes[src]

    arr[idx].take(*args, _size=size, _prio=prio, _device=device, **kwargs)
    after_new = (charm.app_sends, list(charm._qd.sent) if with_qd else None)
    _parent_invoke(charm, arr.aid, idx, "take", args, kwargs, size, prio,
                   device)

    (new_src, new_dst, new), (old_src, old_dst, old) = sent
    assert (new_src, new_dst) == (old_src, old_dst) == (src, coll.home_of(idx))
    # handler, src, dst, nbytes, payload, prio, device — and the two
    # fields a send fills in later, still at their defaults
    assert new == old
    assert type(new.payload[4]) is tuple and type(new.payload[5]) is dict
    assert after_new[0] == 1 and charm.app_sends == 2
    if with_qd:
        assert after_new[1][src] == 1 and sum(after_new[1]) == 1
        assert charm._qd.sent[src] == 2


# -- the refs themselves -----------------------------------------------------
def test_refs_are_built_per_call_and_hold_no_extra_state():
    charm, conv, arr, coll = _runtime()
    ref, bound = arr[3], arr[3].take
    assert type(ref) is ElementRef and (ref.proxy, ref.index) == (arr, 3)
    assert type(bound) is BoundMethod
    assert (bound.proxy, bound.index, bound.name) == (arr, 3, "take")
    assert arr[3] is not ref  # nothing is cached on the proxy
    assert not hasattr(ref, "__dict__") and not hasattr(bound, "__dict__")
    bcast = arr.take
    assert type(bcast) is BoundMethod and bcast.index is None


def test_underscore_attributes_are_not_entry_methods():
    charm, conv, arr, coll = _runtime()
    for name in ("_private", "__deepcopy__", "_size"):
        with pytest.raises(AttributeError):
            getattr(arr[0], name)
        with pytest.raises(AttributeError):
            getattr(arr, name)
    assert not hasattr(arr[0], "_x") and not hasattr(arr, "_x")


# -- the branches the short send path steps past -----------------------------
def test_call_outside_a_handler_is_refused_before_anything_is_counted():
    charm, conv, arr, coll = _runtime()
    sent = _capture_sends(conv)
    for call in (lambda: arr[0].take(1), lambda: arr.take(1)):
        with pytest.raises(CharmError, match="inside an entry method"):
            call()
    assert sent == [] and charm.app_sends == 0


def test_unknown_index_is_refused_before_anything_is_counted():
    charm, conv, arr, coll = _runtime()
    sent = _capture_sends(conv)
    charm._current_pe = conv.pes[0]
    with pytest.raises(CharmError, match=r"has no element 99"):
        arr[99].take()
    assert sent == [] and charm.app_sends == 0
    assert 99 not in coll.location


def test_broadcast_goes_through_invoke_as_one_message_to_self():
    charm, conv, arr, coll = _runtime()
    sent = _capture_sends(conv)
    charm._current_pe = conv.pes[5]
    arr.take(7, _size=100, _prio=2, k="v")
    [(src, dst, msg)] = sent
    assert (src, dst) == (5, 5)
    assert msg == Message(charm._h_entry, 5, 5, 100,
                          payload=("bcast", arr.aid, "take", (7,), {"k": "v"}, 5),
                          prio=2)
    assert charm.app_sends == 1


def test_broadcast_runs_every_element_once_and_is_counted_per_tree_message():
    charm, conv, arr, coll = _runtime()
    charm.start(lambda pe: arr.take("x"), pe=N_PES - 1)
    charm.run()
    elems = dict(charm.iter_elements(coll.name))
    assert all(e.got == [(("x",), {})] for e in elems.values())
    # the root's message to itself and one per tree edge
    assert charm.app_sends == charm.app_executes == N_PES


# -- the branches the short delivery path steps past -------------------------
def _inv(charm, arr, idx, src, dst, method="take", nbytes=64, prio=None):
    return Message(charm._h_entry, src, dst, nbytes,
                   payload=("inv", arr.aid, idx, method, ("v",), {}), prio=prio)


def test_unknown_entry_method_is_refused_at_delivery():
    charm, conv, arr, coll = _runtime()
    charm.start(lambda pe: arr[1].no_such_method())
    with pytest.raises(CharmError, match="Cell has no entry method 'no_such_method'"):
        charm.run()


def test_invocation_for_a_migrant_in_flight_is_buffered_then_run():
    charm, conv, arr, coll = _runtime()
    old, new = coll.home_of(3), 6
    elem = coll.local[old].pop(3)  # what _migrate does at the old home
    coll.location[3] = new
    msg = _inv(charm, arr, 3, src=0, dst=new)
    charm._entry_handler(conv.pes[new], msg)
    assert coll.waiting == {3: [msg]} and elem.got == []
    assert charm.app_executes == 0
    charm._install_migrant(conv.pes[new], arr.aid, 3, elem)
    assert elem.got == [(("v",), {})] and coll.waiting == {}
    assert charm.app_executes == 1 and elem.pe is conv.pes[new]


def test_stale_delivery_is_forwarded_and_plants_nothing():
    # 2 elements on 192 PEs: a PE that hosts nothing gets an invocation
    charm, conv, arr, coll = _runtime(n_pes=192, n_elems=2, cores_per_node=24)
    sent = _capture_sends(conv)
    msg = _inv(charm, arr, 1, src=0, dst=100, nbytes=300, prio=4)
    charm._entry_handler(conv.pes[100], msg)
    [(src, dst, fwd)] = sent
    assert (src, dst) == (100, coll.home_of(1))
    assert fwd == Message(charm._h_entry, 100, dst, 300,
                          payload=msg.payload, prio=4)
    assert charm.app_executes == 0  # forwarded, not processed
    assert len(coll.local) == 2


def test_reads_do_not_plant_per_pe_tables():
    charm, conv, arr, coll = _runtime(n_pes=192, n_elems=2, cores_per_node=24)
    charm.start(lambda pe: arr.take("x"), pe=191)
    charm.run()
    assert all(e.got for _, e in charm.iter_elements(coll.name))
    assert not coll.hosts(7) and coll.element_at(7, 0) is None
    assert len(coll.local) == 2


# -- reductions still name their target by a BoundMethod ---------------------
def test_reduction_target_is_a_bound_method():
    charm, conv, arr, coll = _runtime()
    charm.start(lambda pe: arr.give())
    charm.run()
    assert coll.local[coll.home_of(0)][0].got == [N_ELEMS]
    elem = coll.local[coll.home_of(1)][1]
    with pytest.raises(CharmError, match="bound proxy method"):
        elem.contribute(1, "sum", elem.total)
