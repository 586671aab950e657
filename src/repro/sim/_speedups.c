/* C hot core: the slab event store and run loop of repro.sim.engine,
 * the network pass of repro.hardware.router.TorusNetwork.transfer and (at
 * the end of the file) the N-Queens search of repro.apps.nqueens.solver.
 *
 * The engine part mirrors the pure-Python slab engine exactly — same
 * (time, seq) total order, same lazy-cancel + compaction policy, same
 * run()/step()/peek() semantics including the drained-clock-advance
 * corner — so a simulation produces bit-identical checksums on either
 * core.  Float arithmetic is IEEE double in both interpreters, sequence
 * numbers are identical, and the heap's internal layout never affects pop
 * order (keys are unique), so determinism survives the port.
 *
 * Layout: a slab of Slot records (time, seq, fn, args, state) indexed
 * by a binary heap of (time, seq, slot) entries.  Handles are slot
 * views carrying the slot's seq for staleness — cancel on a recycled
 * slot is a no-op, exactly like the Python EventHandle.
 *
 * Built on demand by repro.sim._speed (plain
 * `cc -O2 -ffp-contract=off -shared -fPIC`, numpy's headers and its
 * static libnpyrandom); any build or import failure falls back, with a
 * RuntimeWarning, to the Python engine, the router's Python body and the
 * numpy search.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdbool.h>
#include <stdint.h>
#include "numpy/random/distributions.h"

#define STATE_FREE 0
#define STATE_PENDING 1
#define STATE_CANCELLED 2

/* Mirror the Python engine's compaction policy knobs. */
#define COMPACT_MIN 64
#define COMPACT_RATIO 0.5

typedef struct {
    double time;
    long long seq;     /* staleness key for handles */
    PyObject *fn;      /* owned; NULL unless pending */
    PyObject *args;    /* owned tuple; NULL unless pending */
    char state;
} Slot;

typedef struct {
    double time;
    long long seq;
    Py_ssize_t slot;
} HeapEnt;

typedef struct {
    PyObject_HEAD
    double now;
    long long seq;
    Slot *slab;
    Py_ssize_t slab_cap;
    Py_ssize_t *freelist;
    Py_ssize_t free_n;
    HeapEnt *heap;
    Py_ssize_t heap_n, heap_cap;
    long long cancelled;      /* cancelled entries still parked */
    int running;
    int stopped;
    long long events_executed;
    PyObject *sim_error;      /* SimulationError class (owned) */
} Core;

typedef struct {
    PyObject_HEAD
    Core *core;        /* owned */
    Py_ssize_t slot;
    long long seq;
    double time;       /* snapshot at arm time (stable across slot reuse) */
} CHandle;

static PyTypeObject Core_Type;
static PyTypeObject CHandle_Type;

/* ---- heap primitives (min-heap on (time, seq)) ------------------------ */

static inline int
ent_lt(const HeapEnt *a, const HeapEnt *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    return a->seq < b->seq;
}

static int
heap_reserve(Core *c, Py_ssize_t need)
{
    if (need <= c->heap_cap)
        return 0;
    Py_ssize_t cap = c->heap_cap ? c->heap_cap : 64;
    while (cap < need)
        cap *= 2;
    HeapEnt *h = PyMem_Realloc(c->heap, cap * sizeof(HeapEnt));
    if (!h) {
        PyErr_NoMemory();
        return -1;
    }
    c->heap = h;
    c->heap_cap = cap;
    return 0;
}

static int
heap_push(Core *c, double time, long long seq, Py_ssize_t slot)
{
    if (heap_reserve(c, c->heap_n + 1) < 0)
        return -1;
    HeapEnt *h = c->heap;
    Py_ssize_t i = c->heap_n++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (h[parent].time < time
            || (h[parent].time == time && h[parent].seq < seq))
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i].time = time;
    h[i].seq = seq;
    h[i].slot = slot;
    return 0;
}

/* Remove the root; heap must be nonempty. */
static void
heap_pop(Core *c)
{
    HeapEnt *h = c->heap;
    Py_ssize_t n = --c->heap_n;
    if (n == 0)
        return;
    HeapEnt last = h[n];
    Py_ssize_t i = 0;
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && ent_lt(&h[child + 1], &h[child]))
            child += 1;
        if (!ent_lt(&h[child], &last))
            break;
        h[i] = h[child];
        i = child;
    }
    h[i] = last;
}

static void
heap_heapify(Core *c)
{
    HeapEnt *h = c->heap;
    Py_ssize_t n = c->heap_n;
    for (Py_ssize_t start = (n >> 1) - 1; start >= 0; start--) {
        HeapEnt item = h[start];
        Py_ssize_t i = start;
        for (;;) {
            Py_ssize_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n && ent_lt(&h[child + 1], &h[child]))
                child += 1;
            if (!ent_lt(&h[child], &item))
                break;
            h[i] = h[child];
            i = child;
        }
        h[i] = item;
    }
}

/* ---- slab primitives -------------------------------------------------- */

static Py_ssize_t
slab_alloc(Core *c)
{
    if (c->free_n > 0)
        return c->freelist[--c->free_n];
    Py_ssize_t cap = c->slab_cap ? c->slab_cap * 2 : 64;
    Slot *s = PyMem_Realloc(c->slab, cap * sizeof(Slot));
    if (!s) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t *f = PyMem_Realloc(c->freelist, cap * sizeof(Py_ssize_t));
    if (!f) {
        c->slab = s;  /* keep the successful realloc */
        c->slab_cap = cap;
        PyErr_NoMemory();
        return -1;
    }
    for (Py_ssize_t i = c->slab_cap; i < cap; i++) {
        s[i].state = STATE_FREE;
        s[i].fn = NULL;
        s[i].args = NULL;
        s[i].seq = -1;
    }
    /* Park the new slots (except the one we hand out) on the free list,
     * highest index deepest so low slots recycle first (cache-friendly,
     * and matches the Python slab's LIFO free list). */
    Py_ssize_t grabbed = c->slab_cap;
    for (Py_ssize_t i = cap - 1; i > grabbed; i--)
        f[c->free_n++] = i;
    c->slab = s;
    c->freelist = f;
    c->slab_cap = cap;
    return grabbed;
}

static inline void
slot_free(Core *c, Py_ssize_t slot)
{
    Slot *s = &c->slab[slot];
    s->state = STATE_FREE;
    Py_CLEAR(s->fn);
    Py_CLEAR(s->args);
    c->freelist[c->free_n++] = slot;  /* capacity == slab_cap, always fits */
}

static void
core_compact(Core *c)
{
    HeapEnt *h = c->heap;
    Py_ssize_t n = c->heap_n, w = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_ssize_t slot = h[i].slot;
        if (c->slab[slot].state == STATE_PENDING)
            h[w++] = h[i];
        else
            slot_free(c, slot);
    }
    if (w != n) {
        c->heap_n = w;
        heap_heapify(c);
    }
    c->cancelled = 0;
}

/* ---- handle type ------------------------------------------------------ */

static PyObject *
chandle_cancel(CHandle *self, PyObject *Py_UNUSED(ignored))
{
    Core *c = self->core;
    Py_ssize_t slot = self->slot;
    Slot *s = &c->slab[slot];
    if (s->seq == self->seq && s->state == STATE_PENDING) {
        s->state = STATE_CANCELLED;
        Py_CLEAR(s->fn);
        Py_CLEAR(s->args);
        c->cancelled += 1;
        if (c->cancelled >= COMPACT_MIN
            && (double)c->cancelled > COMPACT_RATIO * (double)c->heap_n)
            core_compact(c);
    }
    Py_RETURN_NONE;
}

static PyObject *
chandle_get_cancelled(CHandle *self, void *Py_UNUSED(closure))
{
    Slot *s = &self->core->slab[self->slot];
    /* Pending with our seq => live; anything else (fired, cancelled,
     * recycled) reports True, matching the Python slab handle. */
    if (s->seq == self->seq && s->state == STATE_PENDING)
        Py_RETURN_FALSE;
    Py_RETURN_TRUE;
}

static PyObject *
chandle_get_time(CHandle *self, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(self->time);
}

static PyObject *
chandle_repr(CHandle *self)
{
    Slot *s = &self->core->slab[self->slot];
    const char *state =
        (s->seq == self->seq && s->state == STATE_PENDING)
        ? "pending" : "cancelled";
    return PyUnicode_FromFormat("<EventHandle t=%R seq=%lld %s>",
                                PyFloat_FromDouble(self->time),
                                self->seq, state);
}

static void
chandle_dealloc(CHandle *self)
{
    PyObject_GC_UnTrack(self);
    Py_CLEAR(self->core);
    PyObject_GC_Del(self);
}

static int
chandle_traverse(CHandle *self, visitproc visit, void *arg)
{
    Py_VISIT(self->core);
    return 0;
}

static int
chandle_clear(CHandle *self)
{
    Py_CLEAR(self->core);
    return 0;
}

static PyMethodDef chandle_methods[] = {
    {"cancel", (PyCFunction)chandle_cancel, METH_NOARGS,
     "Prevent the callback from firing (idempotent, stale-safe)."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef chandle_getset[] = {
    {"cancelled", (getter)chandle_get_cancelled, NULL,
     "True once the event can no longer fire via this handle.", NULL},
    {"time", (getter)chandle_get_time, NULL,
     "Absolute simulated time this event was armed for.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject CHandle_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._speedups.EventHandle",
    .tp_basicsize = sizeof(CHandle),
    .tp_dealloc = (destructor)chandle_dealloc,
    .tp_repr = (reprfunc)chandle_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)chandle_traverse,
    .tp_clear = (inquiry)chandle_clear,
    .tp_methods = chandle_methods,
    .tp_getset = chandle_getset,
};

/* ---- core scheduling -------------------------------------------------- */

/* Arm fn(*args) at `time`; returns the slot index or -1 on error.
 * Steals nothing; fn/args are increfed here. */
static Py_ssize_t
core_arm(Core *c, double time, PyObject *fn, PyObject *args)
{
    Py_ssize_t slot = slab_alloc(c);
    if (slot < 0)
        return -1;
    long long seq = c->seq++;
    Slot *s = &c->slab[slot];
    s->time = time;
    s->seq = seq;
    Py_INCREF(fn);
    s->fn = fn;
    Py_INCREF(args);
    s->args = args;
    s->state = STATE_PENDING;
    if (heap_push(c, time, seq, slot) < 0) {
        slot_free(c, slot);
        c->seq--;
        return -1;
    }
    return slot;
}

static PyObject *
make_handle(Core *c, Py_ssize_t slot)
{
    CHandle *h = PyObject_GC_New(CHandle, &CHandle_Type);
    if (!h)
        return NULL;
    Py_INCREF(c);
    h->core = c;
    h->slot = slot;
    h->seq = c->slab[slot].seq;
    h->time = c->slab[slot].time;
    PyObject_GC_Track((PyObject *)h);
    return (PyObject *)h;
}

/* Build an args tuple from fastcall tail (may be empty). */
static PyObject *
pack_args(PyObject *const *args, Py_ssize_t n)
{
    PyObject *t = PyTuple_New(n);
    if (!t)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        Py_INCREF(args[i]);
        PyTuple_SET_ITEM(t, i, args[i]);
    }
    return t;
}

static PyObject *
arm_common(Core *c, double time, PyObject *const *args, Py_ssize_t nargs,
           int want_handle)
{
    PyObject *tup = pack_args(args + 1, nargs - 1);
    if (!tup)
        return NULL;
    Py_ssize_t slot = core_arm(c, time, args[0], tup);
    Py_DECREF(tup);
    if (slot < 0)
        return NULL;
    if (!want_handle)
        Py_RETURN_NONE;
    return make_handle(c, slot);
}

static PyObject *
core_call_at_impl(Core *c, PyObject *const *args, Py_ssize_t nargs,
                  const char *name, int want_handle)
{
    if (nargs < 2) {
        PyErr_Format(PyExc_TypeError,
                     "%s() requires a time and a callable", name);
        return NULL;
    }
    double time = PyFloat_AsDouble(args[0]);
    if (time == -1.0 && PyErr_Occurred())
        return NULL;
    if (time < c->now) {
        PyErr_Format(c->sim_error,
                     "cannot schedule at t=%R (now=%R): time travel",
                     args[0], PyFloat_FromDouble(c->now));
        return NULL;
    }
    if (!isfinite(time)) {
        PyErr_Format(c->sim_error, "non-finite event time %R", args[0]);
        return NULL;
    }
    return arm_common(c, time, args + 1, nargs - 1, want_handle);
}

static PyObject *
core_call_at(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    return core_call_at_impl(c, args, nargs, "call_at", 1);
}

static PyObject *
core_post_at(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    return core_call_at_impl(c, args, nargs, "post_at", 0);
}

static PyObject *
core_call_after(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "call_after() requires a delay and a callable");
        return NULL;
    }
    double delay = PyFloat_AsDouble(args[0]);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    /* !(delay >= 0) also rejects NaN, matching Python's `not 0.0 <= delay`. */
    if (!(delay >= 0.0) || isinf(delay)) {
        PyErr_Format(c->sim_error, "negative delay %R", args[0]);
        return NULL;
    }
    double time = c->now + delay;
    if (isinf(time)) {
        PyErr_Format(c->sim_error, "non-finite event time %R",
                     PyFloat_FromDouble(time));
        return NULL;
    }
    return arm_common(c, time, args + 1, nargs - 1, 1);
}

static PyObject *
core_call_at_node(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    /* The node identity carries no information on a sequential core;
     * drop it and fall through to call_at.  (A sharded engine never
     * binds the C core — it needs the overridable Python paths.) */
    if (nargs < 3) {
        PyErr_SetString(PyExc_TypeError,
                        "call_at_node() requires (node_id, time, fn)");
        return NULL;
    }
    return core_call_at_impl(c, args + 1, nargs - 1, "call_at_node", 1);
}

static PyObject *
core_post_at_node(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 3) {
        PyErr_SetString(PyExc_TypeError,
                        "post_at_node() requires (node_id, time, fn)");
        return NULL;
    }
    return core_call_at_impl(c, args + 1, nargs - 1, "post_at_node", 0);
}

/* post_many(times, fn, argss): batch-arm pre-validated events.  `times`
 * is a sequence of floats (already validated >= now and finite by the
 * Python wrapper), argss is None (fn()) or a sequence of tuples. */
static PyObject *
core_post_many(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "post_many() takes (times, fn, argss)");
        return NULL;
    }
    PyObject *times = PySequence_Fast(args[0], "times must be a sequence");
    if (!times)
        return NULL;
    PyObject *fn = args[1];
    PyObject *argss = args[2];
    Py_ssize_t n = PySequence_Fast_GET_SIZE(times);
    PyObject *empty = PyTuple_New(0);
    if (!empty) {
        Py_DECREF(times);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        double t = PyFloat_AsDouble(PySequence_Fast_GET_ITEM(times, i));
        if (t == -1.0 && PyErr_Occurred())
            goto fail;
        PyObject *tup;
        if (argss == Py_None) {
            tup = empty;
            Py_INCREF(tup);
        }
        else {
            PyObject *item = PySequence_GetItem(argss, i);
            if (!item)
                goto fail;
            tup = PySequence_Tuple(item);
            Py_DECREF(item);
            if (!tup)
                goto fail;
        }
        Py_ssize_t slot = core_arm(c, t, fn, tup);
        Py_DECREF(tup);
        if (slot < 0)
            goto fail;
    }
    Py_DECREF(empty);
    Py_DECREF(times);
    return PyLong_FromSsize_t(n);
fail:
    Py_DECREF(empty);
    Py_DECREF(times);
    return NULL;
}

/* ---- run loop --------------------------------------------------------- */

/* Reap cancelled entries off the root.  Returns heap_n. */
static inline Py_ssize_t
reap_root(Core *c)
{
    while (c->heap_n > 0) {
        Py_ssize_t slot = c->heap[0].slot;
        if (c->slab[slot].state == STATE_PENDING)
            break;
        heap_pop(c);
        c->cancelled -= 1;
        slot_free(c, slot);
    }
    return c->heap_n;
}

static PyObject *
core_run(Core *c, PyObject *const *args, Py_ssize_t nargs)
{
    /* run(until, max_events_or_None, observer_or_None, sanitizer_or_None) */
    if (nargs != 4) {
        PyErr_SetString(PyExc_TypeError,
                        "run() takes (until, max_events, observer, sanitizer)");
        return NULL;
    }
    double until = PyFloat_AsDouble(args[0]);
    if (until == -1.0 && PyErr_Occurred())
        return NULL;
    long long max_events = -1;
    if (args[1] != Py_None) {
        max_events = PyLong_AsLongLong(args[1]);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }
    PyObject *observer = args[2];
    PyObject *sanitizer = args[3];
    if (c->running) {
        PyErr_SetString(c->sim_error, "Engine.run() is not re-entrant");
        return NULL;
    }
    c->running = 1;
    c->stopped = 0;
    long long executed = 0;
    int broke = 0;   /* exited via the until horizon */
    int failed = 0;

    while (!c->stopped && reap_root(c) > 0) {
        double time = c->heap[0].time;
        if (time > until) {
            c->now = until;
            broke = 1;
            break;
        }
        if (max_events >= 0 && executed >= max_events) {
            if (observer != Py_None) {
                PyObject *r = PyObject_CallMethod(
                    observer, "on_stall", "dL", c->now, max_events);
                if (!r) {
                    failed = 1;
                    break;
                }
                Py_DECREF(r);
            }
            PyErr_Format(c->sim_error,
                         "exceeded max_events=%lld (runaway simulation?)",
                         max_events);
            failed = 1;
            break;
        }
        Py_ssize_t slot = c->heap[0].slot;
        heap_pop(c);
        c->now = time;
        c->events_executed += 1;
        executed += 1;
        Slot *s = &c->slab[slot];
        PyObject *fn = s->fn;
        PyObject *fargs = s->args;
        s->fn = NULL;
        s->args = NULL;
        s->state = STATE_FREE;
        c->freelist[c->free_n++] = slot;
        PyObject *res = PyObject_CallObject(fn, fargs);
        Py_DECREF(fn);
        Py_DECREF(fargs);
        if (!res) {
            failed = 1;
            break;
        }
        Py_DECREF(res);
    }
    if (failed) {
        c->running = 0;
        return NULL;
    }
    if (!broke && c->heap_n == 0) {
        /* Drained (or stopped with nothing pending): advance the clock
         * to a finite horizon and fire the quiescence hook — mirrors
         * the heap engine's while-else. */
        if (isfinite(until) && until > c->now)
            c->now = until;
        if (sanitizer != Py_None && !c->stopped) {
            PyObject *r = PyObject_CallMethod(
                sanitizer, "on_engine_drained", "d", c->now);
            if (!r) {
                c->running = 0;
                return NULL;
            }
            Py_DECREF(r);
        }
    }
    c->running = 0;
    return PyFloat_FromDouble(c->now);
}

static PyObject *
core_step(Core *c, PyObject *Py_UNUSED(ignored))
{
    if (reap_root(c) == 0)
        Py_RETURN_FALSE;
    Py_ssize_t slot = c->heap[0].slot;
    double time = c->heap[0].time;
    heap_pop(c);
    c->now = time;
    c->events_executed += 1;
    Slot *s = &c->slab[slot];
    PyObject *fn = s->fn;
    PyObject *fargs = s->args;
    s->fn = NULL;
    s->args = NULL;
    s->state = STATE_FREE;
    c->freelist[c->free_n++] = slot;
    PyObject *res = PyObject_CallObject(fn, fargs);
    Py_DECREF(fn);
    Py_DECREF(fargs);
    if (!res)
        return NULL;
    Py_DECREF(res);
    Py_RETURN_TRUE;
}

static PyObject *
core_peek(Core *c, PyObject *Py_UNUSED(ignored))
{
    if (reap_root(c) == 0)
        return PyFloat_FromDouble(Py_HUGE_VAL);
    return PyFloat_FromDouble(c->heap[0].time);
}

static PyObject *
core_stop(Core *c, PyObject *Py_UNUSED(ignored))
{
    c->stopped = 1;
    Py_RETURN_NONE;
}

static PyObject *
core_set_now(Core *c, PyObject *arg)
{
    /* Validation (monotonicity, no skipped events) is the Python
     * wrapper's job — advance_to is a cold path. */
    double t = PyFloat_AsDouble(arg);
    if (t == -1.0 && PyErr_Occurred())
        return NULL;
    c->now = t;
    Py_RETURN_NONE;
}

/* ---- type plumbing ---------------------------------------------------- */

static PyObject *
core_get_now(Core *c, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(c->now);
}

static PyObject *
core_get_pending(Core *c, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(c->heap_n);
}

static PyObject *
core_get_cancelled(Core *c, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(c->cancelled);
}

static PyObject *
core_get_executed(Core *c, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(c->events_executed);
}

static PyObject *
core_new(PyTypeObject *type, PyObject *args, PyObject *Py_UNUSED(kwds))
{
    PyObject *sim_error;
    if (!PyArg_ParseTuple(args, "O", &sim_error))
        return NULL;
    Core *c = (Core *)type->tp_alloc(type, 0);
    if (!c)
        return NULL;
    c->now = 0.0;
    c->seq = 0;
    c->slab = NULL;
    c->slab_cap = 0;
    c->freelist = NULL;
    c->free_n = 0;
    c->heap = NULL;
    c->heap_n = c->heap_cap = 0;
    c->cancelled = 0;
    c->running = 0;
    c->stopped = 0;
    c->events_executed = 0;
    Py_INCREF(sim_error);
    c->sim_error = sim_error;
    return (PyObject *)c;
}

static int
core_traverse(Core *c, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < c->slab_cap; i++) {
        Py_VISIT(c->slab[i].fn);
        Py_VISIT(c->slab[i].args);
    }
    Py_VISIT(c->sim_error);
    return 0;
}

static int
core_clear_slots(Core *c)
{
    for (Py_ssize_t i = 0; i < c->slab_cap; i++) {
        Py_CLEAR(c->slab[i].fn);
        Py_CLEAR(c->slab[i].args);
        c->slab[i].state = STATE_FREE;
    }
    Py_CLEAR(c->sim_error);
    return 0;
}

static void
core_dealloc(Core *c)
{
    PyObject_GC_UnTrack(c);
    core_clear_slots(c);
    PyMem_Free(c->slab);
    PyMem_Free(c->freelist);
    PyMem_Free(c->heap);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

/* a METH_FASTCALL function in a PyMethodDef, the way CPython spells it */
#define FASTCALL(fn) ((PyCFunction)(void (*)(void))(fn))

static PyMethodDef core_methods[] = {
    {"call_at", FASTCALL(core_call_at), METH_FASTCALL, NULL},
    {"call_after", FASTCALL(core_call_after), METH_FASTCALL, NULL},
    {"call_at_node", FASTCALL(core_call_at_node), METH_FASTCALL, NULL},
    {"post_at_node", FASTCALL(core_post_at_node), METH_FASTCALL, NULL},
    {"post_at", FASTCALL(core_post_at), METH_FASTCALL, NULL},
    {"post_many", FASTCALL(core_post_many), METH_FASTCALL, NULL},
    {"run", FASTCALL(core_run), METH_FASTCALL, NULL},
    {"step", (PyCFunction)core_step, METH_NOARGS, NULL},
    {"peek", (PyCFunction)core_peek, METH_NOARGS, NULL},
    {"stop", (PyCFunction)core_stop, METH_NOARGS, NULL},
    {"_set_now", (PyCFunction)core_set_now, METH_O, NULL},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef core_getset[] = {
    {"now", (getter)core_get_now, NULL, NULL, NULL},
    {"pending", (getter)core_get_pending, NULL, NULL, NULL},
    {"pending_cancelled", (getter)core_get_cancelled, NULL, NULL, NULL},
    {"events_executed", (getter)core_get_executed, NULL, NULL, NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject Core_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._speedups.EngineCore",
    .tp_basicsize = sizeof(Core),
    .tp_dealloc = (destructor)core_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_traverse = (traverseproc)core_traverse,
    .tp_clear = (inquiry)core_clear_slots,
    .tp_methods = core_methods,
    .tp_getset = core_getset,
    .tp_new = core_new,
};

/* ---- the network pass: TorusNetwork.transfer ------------------------- */

/* repro.hardware.router.TorusNetwork._transfer_py, statement for
 * statement: injection port, per hop the productive slots of the vertex
 * the message stands on (Torus3D.out_hops / Dragonfly.out_hops, mirrored
 * below), the candidate pick and the reserve (the body's
 * one LinkTable.reserve, reserve_row here), ejection port, arrival, the
 * observer hook, the TransferTiming.  The arithmetic is the same IEEE
 * double operations in the same order (and the build passes
 * -ffp-contract=off), so either lane leaves every horizon, counter and
 * timing bit-identical.
 *
 * Link state is the columns of the network's three LinkTables
 * (repro.hardware.link): per row `lanes` horizons (double), bytes_carried
 * and transfers (int64), and the latency column (double).  The lane reads
 * and writes them through their buffers, as it does the out-table _out (a
 * C int per slot of a vertex: the row of its link, -1 until first touched)
 * and the ports' _inject_made / _eject_made (a byte per vertex).  It
 * opens them on the network's first call and holds them, in a Columns
 * object the network keeps as _columns, for the network's life: the
 * columns are allocated at full size and never resized (a held buffer
 * cannot be), so per call the lane reads no attribute of a table.
 *
 * The Python body is the contract and keeps everything rare.  The whole
 * call goes to it, before any side effect, when a table has no bandwidth
 * (the body raises the ZeroDivisionError), when its arguments do not bind
 * (it raises the TypeError), when the topology is not exactly a Torus3D or
 * a Dragonfly, and when a coordinate is not one of its vertices (it raises
 * the TopologyError).  What is left to call through the instance is first
 * touch (_first_touch for a link, injection_port / ejection_port for a
 * port) and the observer hook. */

static struct {
    PyObject *body;        /* TorusNetwork._transfer_py (owned) */
    PyTypeObject *timing;  /* TransferTiming, a plain tuple subclass (owned) */
    PyTypeObject *torus, *dragonfly;   /* the topologies mirrored (owned) */
} lane;

/* interned: attribute and method names, transfer's parameters */
static PyObject *s_config, *s_links, *s_inject, *s_eject, *s_out,
    *s_inject_made, *s_eject_made, *s_fan, *s_columns, *s_bandwidth,
    *s_lanes, *s_horizons, *s_bytes_carried, *s_transfers, *s_latency,
    *s_observer, *s_messages_routed, *s_nic_msg_gap,
    *s_link_bandwidth, *s_adaptive_routing, *s_first_touch,
    *s_injection_port, *s_ejection_port, *s_on_net_transfer, *s_topology,
    *s_dims, *int_one;
static PyObject *s_shape[4];   /* Dragonfly's g, a, p, h */
#define N_PARAMS 5
static PyObject *s_params[N_PARAMS];
static const char *const param_names[N_PARAMS] = {
    "now", "src", "dst", "nbytes", "bandwidth_cap"};

/* what one message carries past every link */
typedef struct {
    long long size;   /* operator.index(nbytes): what the counters add */
    double nbytes;    /* the same, as the body's size / bandwidth sees it */
    double min_occ;
} Msg;

static inline int
as_double(PyObject *o, double *out)
{
    if (PyFloat_CheckExact(o)) {
        *out = PyFloat_AS_DOUBLE(o);
        return 0;
    }
    *out = PyFloat_AsDouble(o);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* The buffer of column owner.<name>: writable, of format `fmt` and items of
 * `itemsize` bytes.  The item count, or -1 (view->obj is then NULL). */
static Py_ssize_t
open_column(PyObject *owner, PyObject *name, const char *fmt,
            Py_ssize_t itemsize, Py_buffer *view)
{
    PyObject *col = PyObject_GetAttr(owner, name);
    if (!col)
        return -1;
    int rc = PyObject_GetBuffer(col, view, PyBUF_WRITABLE | PyBUF_FORMAT);
    Py_DECREF(col);
    if (rc < 0)
        return -1;
    if (view->itemsize != itemsize || !view->format
        || strcmp(view->format, fmt) != 0) {
        PyErr_Format(PyExc_TypeError, "%U must be a '%s' column", name, fmt);
        PyBuffer_Release(view);
        return -1;
    }
    return view->len / itemsize;
}

/* One LinkTable as the lane uses it. */
typedef struct {
    Py_buffer horizons, carried, count, latency;
    double bandwidth;
    Py_ssize_t lanes, rows, n_latency;
} Table;

static void
table_close(Table *tb)
{
    PyBuffer_Release(&tb->horizons);
    PyBuffer_Release(&tb->carried);
    PyBuffer_Release(&tb->count);
    PyBuffer_Release(&tb->latency);
}

/* Open the LinkTable self.<name>: 0 open, -1 error (what a failed open
 * took is released by table_close). */
static int
table_open(PyObject *self, PyObject *name, Table *tb)
{
    PyObject *tbl = PyObject_GetAttr(self, name);
    if (!tbl)
        return -1;
    int rc = -1;
    PyObject *o = PyObject_GetAttr(tbl, s_bandwidth);
    if (!o)
        goto done;
    int bad = as_double(o, &tb->bandwidth);
    Py_DECREF(o);
    if (bad < 0 || !(o = PyObject_GetAttr(tbl, s_lanes)))
        goto done;
    tb->lanes = PyNumber_AsSsize_t(o, PyExc_OverflowError);
    Py_DECREF(o);
    if (tb->lanes == -1 && PyErr_Occurred())
        goto done;
    Py_ssize_t n_horizons = open_column(tbl, s_horizons, "d",
                                        sizeof(double), &tb->horizons);
    if (n_horizons < 0
        || (tb->rows = open_column(tbl, s_bytes_carried, "q",
                                   sizeof(long long), &tb->carried)) < 0)
        goto done;
    Py_ssize_t n_count = open_column(tbl, s_transfers, "q",
                                     sizeof(long long), &tb->count);
    if (n_count < 0
        || (tb->n_latency = open_column(tbl, s_latency, "d", sizeof(double),
                                        &tb->latency)) < 0)
        goto done;
    if (tb->lanes < 1 || n_count != tb->rows || tb->n_latency < 1
        || n_horizons != tb->rows * tb->lanes) {
        PyErr_Format(PyExc_ValueError, "the columns of %U disagree", name);
        goto done;
    }
    rc = 0;
done:
    Py_DECREF(tbl);
    return rc;
}

/* A network's columns, held open for its life as self._columns: the three
 * LinkTables, the out-table and the ports' made-flags.  Holding a column's
 * buffer is what keeps it from being resized under the lane. */
typedef struct {
    PyObject_HEAD
    Table links, inj, ej;
    Py_buffer out, inj_made, ej_made;
    long fan;
} Columns;

static void
columns_dealloc(Columns *c)
{
    table_close(&c->links);
    table_close(&c->inj);
    table_close(&c->ej);
    PyBuffer_Release(&c->out);
    PyBuffer_Release(&c->inj_made);
    PyBuffer_Release(&c->ej_made);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

static PyTypeObject Columns_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._speedups.Columns",
    .tp_basicsize = sizeof(Columns),
    .tp_dealloc = (destructor)columns_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "The router lane's hold on one network's column buffers.",
};

/* self._columns, opened on the network's first call (a new reference), or
 * NULL on error. */
static Columns *
columns_of(PyObject *self)
{
    PyObject *o = PyObject_GetAttr(self, s_columns);
    if (!o || Py_IS_TYPE(o, &Columns_Type))
        return (Columns *)o;
    int unset = o == Py_None;
    Py_DECREF(o);
    if (!unset) {
        PyErr_SetString(PyExc_TypeError, "_columns is the router lane's");
        return NULL;
    }
    Columns *c = PyObject_New(Columns, &Columns_Type);
    if (!c)
        return NULL;
    memset((char *)c + sizeof(PyObject), 0,
           sizeof(Columns) - sizeof(PyObject));
    if (table_open(self, s_links, &c->links) < 0
        || table_open(self, s_inject, &c->inj) < 0
        || table_open(self, s_eject, &c->ej) < 0
        || open_column(self, s_out, "i", sizeof(int), &c->out) < 0
        || open_column(self, s_inject_made, "B", 1, &c->inj_made) < 0
        || open_column(self, s_eject_made, "B", 1, &c->ej_made) < 0
        || !(o = PyObject_GetAttr(self, s_fan)))
        goto fail;
    c->fan = PyLong_AsLong(o);
    Py_DECREF(o);
    if (c->fan == -1 && PyErr_Occurred())
        goto fail;
    if (c->links.lanes != 1) {
        PyErr_SetString(PyExc_ValueError, "a router link has one lane");
        goto fail;
    }
    if (PyObject_SetAttr(self, s_columns, (PyObject *)c) < 0)
        goto fail;
    return c;
fail:
    Py_DECREF(c);
    return NULL;
}

/* LinkTable.reserve: count the message, occupy the first least-busy lane
 * from max(its horizon, t); returns when the head leaves the far end. */
static inline double
reserve_row(const Table *tb, Py_ssize_t row, double t, const Msg *m)
{
    double *h = (double *)tb->horizons.buf + row * tb->lanes;
    Py_ssize_t best = 0;
    for (Py_ssize_t i = 1; i < tb->lanes; i++)
        if (h[i] < h[best])
            best = i;
    ((long long *)tb->carried.buf)[row] += m->size;
    ((long long *)tb->count.buf)[row] += 1;
    double start = h[best] > t ? h[best] : t;
    double occupancy = m->nbytes / tb->bandwidth;
    if (occupancy < m->min_occ)
        occupancy = m->min_occ;
    h[best] = start + occupancy;
    return start + ((double *)tb->latency.buf)[row % tb->n_latency];
}

/* The port of vertex v: self.<maker>(at) on first touch, then reserve. */
static int
port_reserve(PyObject *self, const Table *tb, const Py_buffer *made,
             PyObject *maker, long v, PyObject *at, double *t, const Msg *m)
{
    if (v >= made->len || v >= tb->rows) {
        PyErr_SetString(PyExc_IndexError, "a vertex beyond the port table");
        return -1;
    }
    if (!((const unsigned char *)made->buf)[v]) {
        PyObject *port = PyObject_CallMethodOneArg(self, maker, at);
        if (!port)
            return -1;
        Py_DECREF(port);
    }
    *t = reserve_row(tb, v, *t, m);
    return 0;
}

/* The fabric as the lane walks it: vertices are indices into the
 * network's out-table (topology.vertex), links are slots of a vertex. */
typedef struct {
    int dragonfly;
    long n[4];        /* Torus3D: dx, dy, dz; Dragonfly: g, a, p, h */
    long terminals;   /* Dragonfly.volume: routers are indexed from here */
} Fabric;

/* 1 and *out = o if o is an int in [0, below); 0 otherwise */
static inline int
index_below(PyObject *o, long below, long *out)
{
    if (!PyLong_CheckExact(o))
        return 0;
    *out = PyLong_AsLong(o);
    if (*out == -1 && PyErr_Occurred())
        PyErr_Clear();
    return 0 <= *out && *out < below;
}

/* Read the shape of network.topology: 1 known, 0 not a topology mirrored
 * here (a subclass, a shape that is not positive ints), -1 error. */
static int
read_fabric(PyObject *topo, Fabric *f)
{
    f->dragonfly = Py_IS_TYPE(topo, lane.dragonfly);
    if (!f->dragonfly) {
        if (!Py_IS_TYPE(topo, lane.torus))
            return 0;
        PyObject *dims = PyObject_GetAttr(topo, s_dims);
        if (!dims)
            return -1;
        int known = PyTuple_CheckExact(dims) && PyTuple_GET_SIZE(dims) == 3;
        for (int i = 0; known && i < 3; i++)
            known = index_below(PyTuple_GET_ITEM(dims, i), LONG_MAX, &f->n[i])
                && f->n[i] > 0;
        Py_DECREF(dims);
        return known;
    }
    for (int i = 0; i < 4; i++) {
        PyObject *size = PyObject_GetAttr(topo, s_shape[i]);
        if (!size)
            return -1;
        int known = index_below(size, LONG_MAX, &f->n[i]) && f->n[i] > 0;
        Py_DECREF(size);
        if (!known)
            return 0;
    }
    f->terminals = f->n[0] * f->n[1] * f->n[2];
    return 1;
}

/* topology.vertex(coord) of a node: 1 and *v, or 0 if coord is not a node
 * (terminal) coordinate of the fabric. */
static int
vertex_of(const Fabric *f, PyObject *coord, long *v)
{
    long c[3];
    if (!PyTuple_CheckExact(coord) || PyTuple_GET_SIZE(coord) != 3)
        return 0;
    for (int i = 0; i < 3; i++)
        if (!index_below(PyTuple_GET_ITEM(coord, i), f->n[i], &c[i]))
            return 0;
    if (f->dragonfly)   /* (g, r, t) */
        *v = c[2] + f->n[2] * (c[1] + f->n[1] * c[0]);
    else                /* (x, y, z) */
        *v = c[0] + f->n[0] * (c[1] + f->n[1] * c[2]);
    return 1;
}

/* topology.out_hops(v, end, first_only): how many, each a slot of v and
 * the vertex its link leads to. */
static int
out_hops(const Fabric *f, long v, long end, int first_only, int *slots,
         long *next)
{
    if (!f->dragonfly) {
        int n = 0, slot = 0;
        long stride = 1, at = v, to = end;
        for (int axis = 0; axis < 3; axis++) {
            long size = f->n[axis];
            long here = at % size;
            long fwd = (to % size - here + size) % size;
            if (fwd) {
                long bwd = size - fwd;
                if (fwd <= bwd) {
                    slots[n] = slot;
                    next[n++] = here + 1 < size ? v + stride
                                                : v - stride * here;
                }
                if (bwd <= fwd) {
                    slots[n] = slot + 1;
                    next[n++] = here ? v - stride : v + stride * (size - 1);
                }
                if (first_only)
                    return 1;
            }
            at /= size;
            to /= size;
            if (at == to)
                break;
            slot += 2;
            stride *= size;
        }
        return n;
    }
    long G = f->n[0], a = f->n[1], p = f->n[2], h = f->n[3];
    long V = f->terminals;
    if (v < V) {
        slots[0] = 0;
        next[0] = V + v / p;
        return 1;
    }
    long g = (v - V) / a, r = (v - V) % a;
    long rt = end < V ? end / p : end - V;
    long gd = rt / a, rd = rt % a;
    if (g != gd) {
        long port = ((gd - g - 1) % G + G) % G;
        long gw = port / h;
        if (r != gw) {
            slots[0] = (int)(p + gw);
            next[0] = V + a * g + gw;
        }
        else {
            /* the far end is Dragonfly.gateway(gd, g) */
            slots[0] = (int)(p + a + port % h);
            next[0] = V + a * gd + ((g - gd - 1) % G + G) % G / h;
        }
    }
    else if (r != rd) {
        slots[0] = (int)(p + rd);
        next[0] = V + a * g + rd;
    }
    else {
        slots[0] = (int)(end % p);
        next[0] = end;
    }
    return 1;
}

/* self._first_touch(v, slot, nxt): the row of the slot's link, or -1. */
static Py_ssize_t
first_touch(PyObject *self, long v, int slot, long nxt)
{
    PyObject *argv[4] = {self, PyLong_FromLong(v), PyLong_FromLong(slot),
                         PyLong_FromLong(nxt)};
    PyObject *res = NULL;
    if (argv[1] && argv[2] && argv[3])
        res = PyObject_VectorcallMethod(
            s_first_touch, argv, 4 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    Py_XDECREF(argv[1]);
    Py_XDECREF(argv[2]);
    Py_XDECREF(argv[3]);
    if (!res)
        return -1;
    Py_ssize_t row = PyNumber_AsSsize_t(res, PyExc_IndexError);
    Py_DECREF(res);
    if (row < 0 && !PyErr_Occurred())
        PyErr_SetString(PyExc_IndexError, "_first_touch gave no row");
    return row < 0 ? -1 : row;
}

/* The network's router links as a route walks them. */
typedef struct {
    const Table *links;
    const int *out;       /* the out-table: a row per slot, -1 untouched */
    Py_ssize_t n_out;
    long fan;             /* slots per vertex */
} Walk;

/* The minimal route *v -> end: per hop the productive links, every
 * candidate touched in slot order, the pick (the only candidate in
 * deterministic mode; in adaptive mode the least-backlogged, the earlier
 * direction on a tie: a router link has one lane, its horizon is the
 * load), the reserve, the step. */
static int
walk_route(PyObject *self, const Walk *w, const Fabric *f, int first_only,
         long *v, long end, double *t, long *hops, const Msg *m)
{
    const double *horizons = w->links->horizons.buf;
    int slots[6];
    long next[6];
    while (*v != end) {
        int n = out_hops(f, *v, end, first_only, slots, next);
        Py_ssize_t row = -1;
        long nxt = end;
        double load = 0.0;
        for (int i = 0; i < n; i++) {
            Py_ssize_t at = (Py_ssize_t)*v * w->fan + slots[i];
            if (slots[i] >= w->fan || at >= w->n_out) {
                PyErr_SetString(PyExc_IndexError,
                                "a slot beyond the out-table");
                return -1;
            }
            Py_ssize_t cand = w->out[at];
            if (cand < 0 && (cand = first_touch(self, *v, slots[i],
                                                next[i])) < 0)
                return -1;
            if (cand >= w->links->rows) {
                PyErr_SetString(PyExc_IndexError,
                                "a row beyond the link table");
                return -1;
            }
            if (row < 0 || horizons[cand] < load) {
                row = cand;
                nxt = next[i];
                load = horizons[cand];
            }
        }
        *t = reserve_row(w->links, row, *t, m);
        *v = nxt;
        *hops += 1;
    }
    return 0;
}

/* Bind the call's arguments to transfer's five parameters (borrowed).
 * 1 bound, 0 they do not bind (the Python body names what is wrong), -1
 * error. */
static int
bind_params(PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
            PyObject **out)
{
    if (nargs > N_PARAMS)
        return 0;
    for (Py_ssize_t i = 0; i < nargs; i++)
        out[i] = args[i];
    Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    for (Py_ssize_t k = 0; k < nkw; k++) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, k);
        Py_ssize_t j = 0;
        while (j < N_PARAMS && name != s_params[j])
            j++;
        if (j == N_PARAMS) {
            /* not one of the interned strings: compare by value */
            for (j = 0; j < N_PARAMS; j++) {
                int eq = PyObject_RichCompareBool(name, s_params[j], Py_EQ);
                if (eq < 0)
                    return -1;
                if (eq)
                    break;
            }
        }
        if (j == N_PARAMS || j < nargs)
            return 0;   /* unknown keyword, or given twice */
        out[j] = args[nargs + k];
    }
    return out[0] && out[1] && out[2] && out[3];
}

/* TorusNetwork._transfer_py(self, *args, **kwargs) */
static PyObject *
call_body(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
          PyObject *kwnames)
{
    Py_ssize_t total = nargs + (kwnames ? PyTuple_GET_SIZE(kwnames) : 0);
    PyObject *small[N_PARAMS + 1];
    PyObject **argv = small;
    if (total > N_PARAMS
        && !(argv = PyMem_Malloc((total + 1) * sizeof(PyObject *))))
        return PyErr_NoMemory();
    argv[0] = self;
    for (Py_ssize_t i = 0; i < total; i++)
        argv[i + 1] = args[i];
    PyObject *res = PyObject_Vectorcall(lane.body, argv, nargs + 1, kwnames);
    if (argv != small)
        PyMem_Free(argv);
    return res;
}

static PyObject *
router_transfer(PyObject *self, PyObject *const *args, Py_ssize_t nargs,
                PyObject *kwnames)
{
    PyObject *p[N_PARAMS] = {NULL, NULL, NULL, NULL, Py_None};
    int bound = bind_params(args, nargs, kwnames, p);
    if (bound < 0)
        return NULL;
    if (!bound)
        return call_body(self, args, nargs, kwnames);

    PyObject *now_o = p[0], *src = p[1], *dst = p[2], *cap_o = p[4];
    Fabric fabric;
    long v, end;
    PyObject *topo = PyObject_GetAttr(self, s_topology);
    if (!topo)
        return NULL;
    int known = read_fabric(topo, &fabric);
    Py_DECREF(topo);
    if (known < 0)
        return NULL;
    if (!known || !vertex_of(&fabric, src, &v)
        || !vertex_of(&fabric, dst, &end))
        return call_body(self, args, nargs, kwnames);

    Columns *c = columns_of(self);
    if (!c)
        return NULL;
    PyObject *cfg = NULL, *size_o = NULL, *tmp = NULL, *result = NULL;
    PyObject *depart_o = NULL, *head_o = NULL, *arrival_o = NULL;
    PyObject *hops_o = NULL;
    Msg m;
    Walk w;
    double now, t, path_bw;
    long hops = 0;
    int first_only;

    if (c->links.bandwidth == 0.0 || c->inj.bandwidth == 0.0
        || c->ej.bandwidth == 0.0) {
        /* no bandwidth: the body's ZeroDivisionError */
        result = call_body(self, args, nargs, kwnames);
        goto done;
    }
    /* size = operator.index(nbytes): its TypeError is the body's */
    if (!(size_o = PyNumber_Index(p[3])))
        goto done;
    m.size = PyLong_AsLongLong(size_o);
    if (m.size < 0) {
        /* past int64 (the body raises where its counter overflows) or
           negative (its ValueError, before any side effect) */
        PyErr_Clear();
        result = call_body(self, args, nargs, kwnames);
        goto done;
    }
    m.nbytes = (double)m.size;
    if (!(cfg = PyObject_GetAttr(self, s_config)))
        goto done;
    tmp = PyObject_GetAttr(cfg, s_nic_msg_gap);
    if (!tmp || as_double(tmp, &m.min_occ) < 0 || as_double(now_o, &now) < 0)
        goto done;
    w.fan = c->fan;
    w.links = &c->links;
    w.out = c->out.buf;
    w.n_out = c->out.len / (Py_ssize_t)sizeof(int);
    Py_SETREF(tmp, PyObject_GetAttr(cfg, s_adaptive_routing));
    if (!tmp || (first_only = PyObject_Not(tmp)) < 0)
        goto done;
    Py_SETREF(tmp, PyObject_GetAttr(self, s_messages_routed));
    if (!tmp)
        goto done;
    Py_SETREF(tmp, PyNumber_InPlaceAdd(tmp, int_one));
    if (!tmp || PyObject_SetAttr(self, s_messages_routed, tmp) < 0)
        goto done;

    /* injection at the source NIC */
    t = now;
    if (port_reserve(self, &c->inj, &c->inj_made, s_injection_port, v, src, &t,
                     &m) < 0
        || !(depart_o = PyFloat_FromDouble(t)))
        goto done;

    /* src -> dst */
    if (walk_route(self, &w, &fabric, first_only, &v, end, &t, &hops, &m) < 0)
        goto done;

    /* ejection into the destination NIC */
    if (port_reserve(self, &c->ej, &c->ej_made, s_ejection_port, end, dst, &t,
                     &m) < 0
        || !(head_o = PyFloat_FromDouble(t)))
        goto done;

    Py_SETREF(tmp, PyObject_GetAttr(cfg, s_link_bandwidth));
    if (!tmp || as_double(tmp, &path_bw) < 0)
        goto done;
    if (cap_o != Py_None) {
        double cap;
        if (as_double(cap_o, &cap) < 0)
            goto done;
        if (cap < path_bw)
            path_bw = cap;
    }
    if (path_bw == 0.0) {
        PyErr_SetString(PyExc_ZeroDivisionError, "float division by zero");
        goto done;
    }
    if (!(arrival_o = PyFloat_FromDouble(t + m.nbytes / path_bw))
        || !(hops_o = PyLong_FromLong(hops)))
        goto done;

    Py_SETREF(tmp, PyObject_GetAttr(self, s_observer));
    if (!tmp)
        goto done;
    if (tmp != Py_None) {
        PyObject *argv[7] = {tmp, src, dst, p[3], now_o, depart_o, hops_o};
        PyObject *res = PyObject_VectorcallMethod(
            s_on_net_transfer, argv, 7 | PY_VECTORCALL_ARGUMENTS_OFFSET,
            NULL);
        if (!res)
            goto done;
        Py_DECREF(res);
    }

    /* tuple.__new__(TransferTiming, (depart, head_arrival, arrival, hops)) */
    result = lane.timing->tp_alloc(lane.timing, 4);
    if (result) {
        PyTuple_SET_ITEM(result, 0, depart_o);
        PyTuple_SET_ITEM(result, 1, head_o);
        PyTuple_SET_ITEM(result, 2, arrival_o);
        PyTuple_SET_ITEM(result, 3, hops_o);
        depart_o = head_o = arrival_o = hops_o = NULL;
    }
done:
    Py_DECREF(c);
    Py_XDECREF(cfg);
    Py_XDECREF(size_o);
    Py_XDECREF(tmp);
    Py_XDECREF(depart_o);
    Py_XDECREF(head_o);
    Py_XDECREF(arrival_o);
    Py_XDECREF(hops_o);
    return result;
}

PyDoc_STRVAR(router_transfer_doc,
"transfer($self, /, now, src, dst, nbytes, bandwidth_cap=None)\n"
"--\n\n"
"Route one message and reserve every link it crosses: the compiled lane\n"
"of TorusNetwork._transfer_py (see there).");

static PyMethodDef router_transfer_def = {
    "transfer", FASTCALL(router_transfer),
    METH_FASTCALL | METH_KEYWORDS, router_transfer_doc};

/* router_transfer(network_cls, body, timing_cls, torus_cls, dragonfly_cls)
 * -> the method descriptor repro.hardware.router binds as
 * TorusNetwork.transfer. */
static PyObject *
bind_router_transfer(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *body;
    PyTypeObject *cls, *timing, *torus, *dragonfly;
    if (!PyArg_ParseTuple(args, "O!OO!O!O!", &PyType_Type, &cls, &body,
                          &PyType_Type, &timing, &PyType_Type, &torus,
                          &PyType_Type, &dragonfly))
        return NULL;
    if (!PyCallable_Check(body)) {
        PyErr_SetString(PyExc_TypeError, "the Python body must be callable");
        return NULL;
    }
    if (!PyType_IsSubtype(timing, &PyTuple_Type)
        || timing->tp_basicsize != PyTuple_Type.tp_basicsize) {
        PyErr_SetString(PyExc_TypeError,
                        "the timing class must be a slotless tuple subclass");
        return NULL;
    }
    Py_XSETREF(lane.body, Py_NewRef(body));
    Py_XSETREF(lane.timing, (PyTypeObject *)Py_NewRef((PyObject *)timing));
    Py_XSETREF(lane.torus, (PyTypeObject *)Py_NewRef((PyObject *)torus));
    Py_XSETREF(lane.dragonfly,
               (PyTypeObject *)Py_NewRef((PyObject *)dragonfly));
    return PyDescr_NewMethod(cls, &router_transfer_def);
}

static int
intern_names(void)
{
    static const struct { PyObject **var; const char *text; } names[] = {
        {&s_config, "config"}, {&s_links, "_links"}, {&s_inject, "_inject"},
        {&s_eject, "_eject"}, {&s_out, "_out"},
        {&s_inject_made, "_inject_made"}, {&s_eject_made, "_eject_made"},
        {&s_fan, "_fan"}, {&s_columns, "_columns"},
        {&s_bandwidth, "bandwidth"}, {&s_lanes, "lanes"},
        {&s_horizons, "horizons"}, {&s_bytes_carried, "bytes_carried"},
        {&s_transfers, "transfers"}, {&s_latency, "latency"},
        {&s_observer, "observer"}, {&s_messages_routed, "messages_routed"},
        {&s_nic_msg_gap, "nic_msg_gap"},
        {&s_link_bandwidth, "link_bandwidth"},
        {&s_adaptive_routing, "adaptive_routing"},
        {&s_first_touch, "_first_touch"},
        {&s_injection_port, "injection_port"},
        {&s_ejection_port, "ejection_port"},
        {&s_on_net_transfer, "on_net_transfer"},
        {&s_topology, "topology"}, {&s_dims, "dims"},
        {&s_shape[0], "groups"}, {&s_shape[1], "routers_per_group"},
        {&s_shape[2], "terminals_per_router"},
        {&s_shape[3], "global_links"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++)
        if (!(*names[i].var = PyUnicode_InternFromString(names[i].text)))
            return -1;
    for (int i = 0; i < N_PARAMS; i++)
        if (!(s_params[i] = PyUnicode_InternFromString(param_names[i])))
            return -1;
    return (int_one = PyLong_FromLong(1)) ? 0 : -1;
}

/* ---- the N-Queens search: exact subtree sizes and Knuth probes -------- */

/* repro.apps.nqueens.solver.subtree_sizes and estimate_leaves over start
 * states given as int64 columns (cols, ld, rd: the three bitmasks of
 * solver.expand_level).  Their Python bodies run under REPRO_PURE_ENGINE=1
 * and are the oracle.  The probe draws every column with numpy's own
 * random_bounded_uint64_fill, the routine behind Generator.integers(k), on
 * the generator's bitgen_t, so the stream and the estimates (the same
 * double operations in the same order) are those of the Python walk. */

#define NQ_MAX_N 61

/* The item count the buffers cols, ld, rd and out (v[0..3], 8-byte items:
 * int64, and float64 for a probe's out) share, or -1 with a ValueError;
 * an n wider than the int64 columns is one too. */
static Py_ssize_t
nq_items(Py_ssize_t n, const Py_buffer *v)
{
    if (n < 0 || n > NQ_MAX_N) {
        PyErr_Format(PyExc_ValueError, "n must be at most %d, got %zd",
                     NQ_MAX_N, n);
        return -1;
    }
    if (v[0].len % 8 || v[1].len != v[0].len || v[2].len != v[0].len
        || v[3].len != v[0].len) {
        PyErr_Format(PyExc_ValueError, "cols, ld, rd and out must have the "
                     "same length of 8-byte items, got %zd, %zd, %zd and %zd "
                     "bytes", v[0].len, v[1].len, v[2].len, v[3].len);
        return -1;
    }
    return v[0].len / 8;
}

static void
nq_release(Py_buffer *v)
{
    for (int i = 0; i < 4; i++)
        PyBuffer_Release(&v[i]);
}

/* Every placement below (c, l, r); solutions found are added to *sol. */
static int64_t
nq_count(uint64_t full, uint64_t c, uint64_t l, uint64_t r, int64_t *sol)
{
    if (c == full) {
        ++*sol;
        return 0;
    }
    int64_t nodes = 0;
    for (uint64_t free = full & ~(c | l | r); free; free &= free - 1) {
        uint64_t bit = free & -free;
        nodes += 1 + nq_count(full, c | bit, ((l | bit) << 1) & full,
                              (r | bit) >> 1, sol);
    }
    return nodes;
}

/* nqueens_subtree_sizes(n, cols, ld, rd, out) -> solutions */
static PyObject *
nqueens_subtree_sizes(PyObject *Py_UNUSED(module), PyObject *args)
{
    Py_ssize_t n, items;
    Py_buffer v[4];
    if (!PyArg_ParseTuple(args, "ny*y*y*w*", &n, &v[0], &v[1], &v[2], &v[3]))
        return NULL;
    int64_t sol = 0;
    if ((items = nq_items(n, v)) >= 0) {
        const int64_t *c = v[0].buf, *l = v[1].buf, *r = v[2].buf;
        int64_t *nodes = v[3].buf;
        uint64_t full = ((uint64_t)1 << n) - 1;
        for (Py_ssize_t i = 0; i < items; i++)
            nodes[i] = nq_count(full, c[i], l[i], r[i], &sol);
    }
    nq_release(v);
    return items < 0 ? NULL : PyLong_FromLongLong(sol);
}

/* nqueens_probe(n, row, cols, ld, rd, bitgen_capsule, probes, out):
 * solver.estimate_subtree_nodes for every start state of `row`, in order;
 * the caller holds the bit generator's lock. */
static PyObject *
nqueens_probe(PyObject *Py_UNUSED(module), PyObject *args)
{
    Py_ssize_t n, row, probes, items;
    PyObject *capsule;
    Py_buffer v[4];
    if (!PyArg_ParseTuple(args, "nny*y*y*Onw*", &n, &row, &v[0], &v[1],
                          &v[2], &capsule, &probes, &v[3]))
        return NULL;
    bitgen_t *bg = NULL;
    if (probes < 1)
        PyErr_Format(PyExc_ValueError, "probes must be at least 1, got %zd",
                     probes);
    else if ((items = nq_items(n, v)) >= 0)
        bg = PyCapsule_GetPointer(capsule, "BitGenerator");
    if (!bg) {
        nq_release(v);
        return NULL;
    }
    const int64_t *c0 = v[0].buf, *l0 = v[1].buf, *r0 = v[2].buf;
    double *est_out = v[3].buf;
    uint64_t full = ((uint64_t)1 << n) - 1;
    for (Py_ssize_t i = 0; i < items; i++) {
        double total = 0.0;
        for (Py_ssize_t p = 0; p < probes; p++) {
            uint64_t c = c0[i], l = l0[i], r = r0[i];
            double weight = 1.0, est = 0.0;
            for (Py_ssize_t y = row; y < n; y++) {
                uint64_t free = full & ~(c | l | r), pick;
                int k = __builtin_popcountll(free);
                if (k == 0)
                    break;
                est += weight * k;
                weight *= k;
                random_bounded_uint64_fill(bg, 0, (uint64_t)k - 1, 1, false,
                                           &pick);
                while (pick--)
                    free &= free - 1;
                uint64_t bit = free & -free;
                c |= bit;
                l = ((l | bit) << 1) & full;
                r = (r | bit) >> 1;
            }
            total += est;
        }
        est_out[i] = total / (double)probes;
    }
    nq_release(v);
    Py_RETURN_NONE;
}

static PyMethodDef speedups_functions[] = {
    {"router_transfer", bind_router_transfer, METH_VARARGS,
     "router_transfer(network_cls, body, timing_cls, torus_cls, dragonfly_cls): "
     "the compiled TorusNetwork.transfer, as a method "
     "descriptor of network_cls."},
    {"nqueens_subtree_sizes", nqueens_subtree_sizes, METH_VARARGS,
     "nqueens_subtree_sizes(n, cols, ld, rd, out) -> solutions: every "
     "placement below each start state into out; the solutions below all."},
    {"nqueens_probe", nqueens_probe, METH_VARARGS,
     "nqueens_probe(n, row, cols, ld, rd, bitgen_capsule, probes, out): "
     "the Knuth estimate of each start state's subtree into out."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef speedups_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro.sim._speedups",
    .m_doc = "C slab core for the simulation engine; the network pass.",
    .m_size = -1,
    .m_methods = speedups_functions,
};

PyMODINIT_FUNC
PyInit__speedups(void)
{
    if (PyType_Ready(&Core_Type) < 0 || PyType_Ready(&CHandle_Type) < 0
        || PyType_Ready(&Columns_Type) < 0 || intern_names() < 0)
        return NULL;
    PyObject *m = PyModule_Create(&speedups_module);
    if (!m)
        return NULL;
    Py_INCREF(&Core_Type);
    if (PyModule_AddObject(m, "EngineCore", (PyObject *)&Core_Type) < 0) {
        Py_DECREF(&Core_Type);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&CHandle_Type);
    if (PyModule_AddObject(m, "EventHandle", (PyObject *)&CHandle_Type) < 0) {
        Py_DECREF(&CHandle_Type);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
