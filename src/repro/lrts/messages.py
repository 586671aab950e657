"""Wire constants shared by the machine layers.

Tags mirror the paper's protocol (Fig. 5 / Fig. 7): a control message with
``INIT_TAG`` carries "memory address, memory handler and size"; ``ACK_TAG``
releases the sender's buffer after the GET; ``PERSISTENT_TAG`` notifies the
receiver of a completed persistent PUT.  The PUT-based rendezvous variant
(implemented for the ablation the paper argues about in §III.C) adds a
request/CTS/done triple — the "one extra rendezvous message" GET avoids.
"""

#: Converse/Charm envelope bytes prepended to every message
LRTS_ENVELOPE = 72

#: size of rendezvous control / ack messages on the wire
CONTROL_BYTES = 64

# SMSG tags — every tag the uGNI layer puts on the wire lives in this one
# table, so a collision is visible here (and refused below)
CHARM_SMALL_TAG = 1  # a whole small Charm++ message
INIT_TAG = 2  # GET rendezvous: sender buffer info
ACK_TAG = 3  # GET rendezvous: transfer done, free sender buffer
PERSISTENT_TAG = 4  # persistent PUT completed
PUT_REQ_TAG = 5  # PUT rendezvous: request (size)
PUT_CTS_TAG = 6  # PUT rendezvous: receiver buffer info
PUT_DONE_TAG = 7  # PUT rendezvous: data landed
PERSIST_SETUP_TAG = 40  # persistent handshake: pin the receive window
PERSIST_READY_TAG = 41  # persistent handshake: window pinned, channel open
PERSIST_TEARDOWN_TAG = 42  # persistent destroy: release the receive window
#: a permanently-failed rendezvous transfer: the side whose FMA/BTE post was
#: abandoned sends it so the peer can reclaim its buffer instead of waiting
#: forever (reliability give-up path)
RNDV_FAIL_TAG = 46
#: delivery acknowledgement (never wrapped, never retried: a lost ack is
#: recovered by the sender's retransmit + receiver dedup)
REL_ACK_TAG = 60

#: control tag -> protocol step run on the receiving PE; the steps are the
#: ones :mod:`repro.lrts.protocols` defines, plus uGNI reliability's ack
TAG_STEPS = {
    INIT_TAG: "init",
    ACK_TAG: "ack",
    PUT_REQ_TAG: "put_req",
    PUT_CTS_TAG: "put_cts",
    PUT_DONE_TAG: "put_done",
    PERSISTENT_TAG: "persistent",
    PERSIST_SETUP_TAG: "persist_setup",
    PERSIST_READY_TAG: "persist_ready",
    PERSIST_TEARDOWN_TAG: "persist_teardown",
    RNDV_FAIL_TAG: "rndv_fail",
    REL_ACK_TAG: "rel_ack",
}
STEP_TAGS = {step: tag for tag, step in TAG_STEPS.items()}
# a duplicated tag (or step) silently collapses a dict entry: refuse it
assert len(TAG_STEPS) == len(STEP_TAGS) == 11 and CHARM_SMALL_TAG not in TAG_STEPS
