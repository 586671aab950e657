"""Exact pins for the raw ping-pong drivers (``repro.apps.raw``).

The exhibits print latencies at display precision, so a one-ulp drift in
``ugni_pingpong`` or ``mpi_pingpong`` leaves every rendering unchanged.
These pins hold every bit: ``repr`` of the one-way latency, with the
default ``iters`` / ``warmup`` and with ``iters=500, warmup=0`` (how
``perf/layers.py`` calls them), on whichever engine lane is loaded.  The
values were recorded from the generator-process drivers that the
callback chains replaced.
"""

import pytest

from repro.apps.raw import mpi_pingpong, ugni_pingpong
from repro.errors import SimulationError
from repro.ugni.smsg import SmsgFabric
from repro.units import KB, MB

RUNS = {"default": {}, "perf": {"iters": 500, "warmup": 0}}

UGNI = {
    "default": {
        8: "1.0121428571428497e-06",
        512: "1.732142857142856e-06",
        2 * KB: "2.3678571428571567e-06",
        16 * KB: "6.98194915254234e-06",
        256 * KB: "4.863618644067807e-05",
        1 * MB: "0.0001819297457627138",
    },
    "perf": {
        8: "1.0121428571428226e-06",
        512: "1.7321428571427717e-06",
        2 * KB: "2.3678571428570123e-06",
        16 * KB: "6.9819491525424446e-06",
        256 * KB: "4.863618644068196e-05",
        1 * MB: "0.0001819297457627177",
    },
}

#: size -> (same buffer, different buffer, intranode); the intranode
#: rendezvous is the xpmem single copy, which no buffer key changes
MPI = {
    "default": {
        8: ("1.4371428571428643e-06", "1.4371428571428643e-06",
            "5.749999999999969e-07"),
        512: ("2.472142857142865e-06", "2.472142857142865e-06",
              "8.900000000000068e-07"),
        2 * KB: ("4.090714285714316e-06", "4.090714285714316e-06",
                 "1.8499999999999958e-06"),
        16 * KB: ("1.7946428571428323e-05", "2.7146428571427974e-05",
                  "1.203999999999999e-05"),
        256 * KB: ("5.3962218045112316e-05", "0.00011116221804511364",
                   "8.884000000000042e-05"),
        1 * MB: ("0.00019193274436090914", "0.00040273274436090933",
                 "0.0003345999999999999"),
    },
    "perf": {
        8: ("1.437142857142787e-06", "1.437142857142787e-06",
            "5.749999999999689e-07"),
        512: ("2.472142857142734e-06", "2.472142857142734e-06",
              "8.900000000000056e-07"),
        2 * KB: ("4.0907142857142916e-06", "4.0907142857142916e-06",
                 "1.8500000000000191e-06"),
        16 * KB: ("1.7955288571431026e-05", "2.714608857143421e-05",
                  "1.2040000000000644e-05"),
        256 * KB: ("5.401907804511811e-05", "0.00011116187804510542",
                   "8.884000000000198e-05"),
        1 * MB: ("0.00019214320436092616", "0.00040273240436089773",
                 "0.0003345999999999877"),
    },
}


def _cases(table):
    return [pytest.param(run, size, id=f"{run}-{size}")
            for run, sizes in table.items() for size in sizes]


@pytest.mark.parametrize("run,size", _cases(UGNI))
def test_ugni_pingpong_is_pinned(run, size):
    assert repr(ugni_pingpong(size, **RUNS[run])) == UGNI[run][size]


@pytest.mark.parametrize("run,size", _cases(MPI))
def test_mpi_pingpong_is_pinned(run, size):
    same, diff, intra = MPI[run][size]
    got = {(b, i): repr(mpi_pingpong(size, same_buffer=b, intranode=i,
                                     **RUNS[run]))
           for b in (True, False) for i in (False, True)}
    assert got == {(True, False): same, (False, False): diff,
                   (True, True): intra, (False, True): intra}


def test_ugni_arrival_with_no_waiter_raises(monkeypatch):
    """A sender still paying for its send when the reply lands: the
    arrival has nobody to resume, and that is an error, not a drop."""
    send = SmsgFabric.send

    def slow_send(self, *args, **kwargs):
        return send(self, *args, **kwargs) + 1e-3

    monkeypatch.setattr(SmsgFabric, "send", slow_send)
    with pytest.raises(SimulationError, match="found no waiter"):
        ugni_pingpong(8)
