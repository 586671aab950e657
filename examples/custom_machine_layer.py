#!/usr/bin/env python
"""Port Charm++ to a new 'network' in ~30 lines — the LRTS thesis, live.

The paper's §III.B argues that the LRTS interface is "a concise
specification of the minimum requirements to implement the Charm++
software stack": a vendor implements init + send + progress and gets the
whole programming model. This example proves the point inside the
simulation by writing a toy machine layer for an *ideal network* (constant
latency, infinite bandwidth, no protocol) and running the same chare
program on all three layers — ideal, uGNI, MPI — unchanged.

Attaching is the whole integration: build the layer on the machine and
hand it to ``ConverseRuntime.attach_lrts``.  Nothing is registered
anywhere; ``make_layer`` builds only the three shipped layers (the rows of
``repro.lrts.factory.LAYERS``).

The ideal layer is also a useful analysis tool: the gap between it and the
uGNI layer is, by construction, exactly the cost of real protocols.

Run:  python examples/custom_machine_layer.py
"""

from repro.charm import Chare, Charm
from repro.converse.scheduler import Message, PE
from repro.lrts.factory import make_layer, make_machine
from repro.lrts.interface import LrtsLayer
from repro.converse.scheduler import ConverseRuntime
from repro.units import fmt_time, us


class IdealMachineLayer(LrtsLayer):
    """The simplest possible LRTS: fixed 1us wire, no CPU cost, no limits."""

    name = "ideal"
    WIRE = 1 * us

    def __init__(self, machine):
        super().__init__()
        self.machine = machine

    def _setup(self) -> None:  # LrtsInit
        pass

    def sync_send(self, src_pe: PE, dst_rank: int, msg: Message) -> None:
        # LrtsSyncSend: deliver after a constant delay, charge nothing
        self.deliver(dst_rank, msg, recv_cpu=0.0, at=src_pe.vtime + self.WIRE)


class Stencil(Chare):
    """A 1D halo-exchange stencil: the all-neighbors-every-step pattern."""

    def __init__(self, n, steps):
        self.n = n
        self.steps_left = steps
        self.halos = 0

    def step(self):
        self.charge(5 * us)  # local compute
        for d in (-1, 1):
            self.thisProxy[(self.thisIndex + d) % self.n].halo(_size=4096)

    def halo(self):
        self.halos += 1
        if self.halos == 2:
            self.halos = 0
            self.steps_left -= 1
            if self.steps_left > 0:
                self.step()


def run(layer_name: str) -> float:
    machine = make_machine(n_pes=16)
    conv = ConverseRuntime(machine, n_pes=16)
    if layer_name == "ideal":
        conv.attach_lrts(IdealMachineLayer(machine))
    else:
        conv.attach_lrts(make_layer(machine, layer=layer_name))
    charm = Charm(conv)
    arr = charm.create_array(Stencil, 16, args=(16, 30), map="round_robin")
    charm.start(lambda pe: arr.step())
    return charm.run(max_events=10**6)


def main() -> None:
    print("same 16-chare halo-exchange stencil, three machine layers:\n")
    times = {name: run(name) for name in ("ideal", "ugni", "mpi")}
    for name, t in times.items():
        overhead = t / times["ideal"]
        print(f"  {name:>6}: {fmt_time(t):>8}  ({overhead:4.2f}x the ideal "
              f"network)")
    print("\nThe ideal layer is ~30 lines (see IdealMachineLayer above):")
    print("LrtsInit + LrtsSyncSend is the entire porting surface the paper's")
    print("LRTS interface demands — everything else (scheduling, chares,")
    print("reductions, broadcasts, LB) came along for free.")


if __name__ == "__main__":
    main()
