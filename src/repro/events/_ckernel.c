/* C core for the DES kernel: the optional accelerated scheduler
 * (LoopCore), the per-packet half of a network link (LinkCore) and the
 * send/ack/receive loop of a transport connection (TransportCore).
 *
 * Compiled on demand by repro/events/_accel.py with the host
 * toolchain; when unavailable the pure-Python HeapEventLoop,
 * repro.netsim.link._PyLinkCore and
 * repro.transport.base._PyTransportCore take over with identical
 * semantics.
 * The scheduler contract both sides implement:
 *
 *   - time is a double (milliseconds); events fire in (time, seq)
 *     order, seq being a monotonically increasing tie-breaker, so
 *     same-timestamp events preserve scheduling order (FIFO).
 *   - cancel() takes the entry out of the heap at once, by the index
 *     the event keeps, so the heap holds only live events (the Python
 *     heap deletes lazily instead; both pop the same (time, seq)
 *     sequence, since a cancelled event never fires on either).
 *   - run/step/run_until/max_events semantics match
 *     repro.events.loop.HeapEventLoop exactly (see its docstrings).
 *
 * Inside C the queue is an implicit binary heap of plain structs, the
 * same structure as the Python fallback: the win lives in keeping
 * push/pop/dispatch out of bytecode entirely.  Results are
 * bit-identical across both schedulers because they realise the same
 * total order over the same IEEE doubles.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <errno.h>
#include <math.h>
#include <time.h>

/* Installed by the loader: repro.events.loop.SimulationError, so C
 * raises the exact class the Python schedulers raise. */
static PyObject *SimulationError = NULL;

typedef struct LoopCoreObject LoopCoreObject;

/* ------------------------------------------------------------------ */
/* ScheduledEvent: the cancellable handle call_later/call_at return.   */
/* ------------------------------------------------------------------ */

/* Up to this many arguments ride inline in the event; more go in a
 * tuple, held in argv[0] with nargs -1. */
#define EV_INLINE 3

typedef struct {
    PyObject_HEAD
    double time;
    long long seq;
    PyObject *callback;       /* strong; NULL (reads None) once released */
    PyObject *argv[EV_INLINE];  /* strong */
    Py_ssize_t nargs;
    char cancelled;
    /* Borrowed "still pending" marker: non-NULL iff the event sits in
     * its loop's heap, at position index (the heap then holds a strong
     * ref to us, keeping the loop alive transitively for the caller).
     * Cleared on pop and on cancel; the loop clears it for every
     * queued event before releasing the queue. */
    LoopCoreObject *loop;
    Py_ssize_t index;
} CEventObject;

static PyTypeObject CEventType;

typedef struct { double time; long long seq; CEventObject *ev; } HeapEntry;

struct LoopCoreObject {
    PyObject_HEAD
    double now;
    long long seq;
    long long processed;
    /* Implicit binary min-heap ordered by (time, seq), live events only. */
    HeapEntry *heap;
    Py_ssize_t heap_len;
    Py_ssize_t heap_cap;
    PyObject *check;          /* strong, or NULL when checking is off */
    PyObject *check_require;  /* bound check.require, cached */
    PyObject *profile;        /* dict, or NULL when profiling is off */
};

/* Freed events kept for reuse: scheduling from the freelist allocates
 * nothing and adds no object to the cyclic collector's count. */
#define EV_FREELIST_MAX 256
static CEventObject *ev_freelist[EV_FREELIST_MAX];
static int ev_free_count = 0;

/* Let go of the callback and its arguments (reads: None and ()).  The
 * fields are reset before the references go, so a destructor that
 * runs meanwhile sees a released event. */
static void
cevent_release(CEventObject *self)
{
    PyObject *callback = self->callback, *argv[EV_INLINE];
    Py_ssize_t n = self->nargs < 0 ? 1 : self->nargs;
    memcpy(argv, self->argv, n * sizeof(PyObject *));
    self->callback = NULL;
    self->nargs = 0;
    Py_XDECREF(callback);
    for (Py_ssize_t i = 0; i < n; i++)
        Py_DECREF(argv[i]);
}

static void heap_remove(LoopCoreObject *loop, Py_ssize_t i);
static void packet_freelist_clear(void);

/* Cancelling takes a pending event out of its loop's heap at once and
 * lets go of the callback and its arguments, pending or not. */
static PyObject *
cevent_cancel(CEventObject *self, PyObject *Py_UNUSED(ignored))
{
    self->cancelled = 1;
    LoopCoreObject *loop = self->loop;
    if (loop != NULL) {
        self->loop = NULL;
        heap_remove(loop, self->index);
    }
    cevent_release(self);
    if (loop != NULL)
        Py_DECREF(self);  /* the heap's reference; the caller holds one */
    Py_RETURN_NONE;
}

static PyObject *
cevent_repr(CEventObject *self)
{
    PyObject *t = PyFloat_FromDouble(self->time);
    if (t == NULL)
        return NULL;
    PyObject *out = PyUnicode_FromFormat(
        "<ScheduledEvent t=%R seq=%lld %s>",
        t, self->seq, self->cancelled ? "cancelled" : "pending");
    Py_DECREF(t);
    return out;
}

static int
cevent_traverse(CEventObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->callback);
    for (Py_ssize_t i = 0; i < (self->nargs < 0 ? 1 : self->nargs); i++)
        Py_VISIT(self->argv[i]);
    return 0;
}

static int
cevent_clear_gc(CEventObject *self)
{
    cevent_release(self);
    return 0;
}

static void
cevent_dealloc(CEventObject *self)
{
    PyObject_GC_UnTrack(self);
    cevent_release(self);
    if (ev_free_count < EV_FREELIST_MAX)
        ev_freelist[ev_free_count++] = self;
    else
        PyObject_GC_Del(self);
}

static PyObject *
cevent_get_cancelled(CEventObject *self, void *closure)
{
    return PyBool_FromLong(self->cancelled);
}

static PyObject *
cevent_get_args(CEventObject *self, void *closure)
{
    if (self->nargs < 0)
        return Py_NewRef(self->argv[0]);
    PyObject *args = PyTuple_New(self->nargs);
    if (args == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->nargs; i++)
        PyTuple_SET_ITEM(args, i, Py_NewRef(self->argv[i]));
    return args;
}

static PyMemberDef cevent_members[] = {
    {"time", T_DOUBLE, offsetof(CEventObject, time), READONLY,
     "Absolute fire time in ms."},
    {"seq", T_LONGLONG, offsetof(CEventObject, seq), READONLY,
     "FIFO tie-breaker."},
    {"callback", T_OBJECT, offsetof(CEventObject, callback), READONLY, NULL},
    {NULL}
};

static PyGetSetDef cevent_getset[] = {
    {"cancelled", (getter)cevent_get_cancelled, NULL,
     "Whether cancel() was called.", NULL},
    {"args", (getter)cevent_get_args, NULL,
     "The callback's arguments, as a tuple.", NULL},
    {NULL}
};

static PyMethodDef cevent_methods[] = {
    {"cancel", (PyCFunction)cevent_cancel, METH_NOARGS,
     "Take the event out of the queue; it will not fire."},
    {NULL}
};

static PyTypeObject CEventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.events._ckernel.ScheduledEvent",
    .tp_basicsize = sizeof(CEventObject),
    .tp_dealloc = (destructor)cevent_dealloc,
    .tp_repr = (reprfunc)cevent_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A single entry in the event queue (C-accelerated).",
    .tp_traverse = (traverseproc)cevent_traverse,
    .tp_clear = (inquiry)cevent_clear_gc,
    .tp_methods = cevent_methods,
    .tp_members = cevent_members,
    .tp_getset = cevent_getset,
};

/* ------------------------------------------------------------------ */
/* Heap primitives                                                     */
/* ------------------------------------------------------------------ */

static inline int
entry_less(HeapEntry a, HeapEntry b)
{
    if (a.time != b.time)
        return a.time < b.time;
    return a.seq < b.seq;
}

/* Store e at position i, telling its event where it is. */
static inline void
heap_set(HeapEntry *h, Py_ssize_t i, HeapEntry e)
{
    h[i] = e;
    e.ev->index = i;
}

/* Move e up from the hole at i to its place. */
static void
sift_up(HeapEntry *h, Py_ssize_t i, HeapEntry e)
{
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (!entry_less(e, h[parent]))
            break;
        heap_set(h, i, h[parent]);
        i = parent;
    }
    heap_set(h, i, e);
}

/* Move e down from the hole at i of an n-entry heap to its place. */
static void
sift_down(HeapEntry *h, Py_ssize_t n, Py_ssize_t i, HeapEntry e)
{
    for (;;) {
        Py_ssize_t child = 2 * i + 1;
        if (child >= n)
            break;
        if (child + 1 < n && entry_less(h[child + 1], h[child]))
            child++;
        if (!entry_less(h[child], e))
            break;
        heap_set(h, i, h[child]);
        i = child;
    }
    heap_set(h, i, e);
}

/* Room for one more entry; -1 on memory error. */
static int
heap_reserve(LoopCoreObject *self)
{
    if (self->heap_len < self->heap_cap)
        return 0;
    Py_ssize_t cap = self->heap_cap ? self->heap_cap * 2 : 64;
    HeapEntry *mem = PyMem_Realloc(self->heap, cap * sizeof(HeapEntry));
    if (mem == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->heap = mem;
    self->heap_cap = cap;
    return 0;
}

/* Take the entry at i out; the caller owns its ev reference. */
static void
heap_remove(LoopCoreObject *self, Py_ssize_t i)
{
    HeapEntry *h = self->heap;
    Py_ssize_t n = --self->heap_len;
    if (i == n)
        return;
    HeapEntry last = h[n];
    if (i > 0 && entry_less(last, h[(i - 1) >> 1]))
        sift_up(h, i, last);
    else
        sift_down(h, n, i, last);
}

/* Give pending event ev the key (t, the next seq), as cancelling it
 * and scheduling the same callback at t would, and move it to its place
 * in one sift. */
static void
heap_rekey(LoopCoreObject *self, CEventObject *ev, double t)
{
    ev->time = t;
    ev->seq = ++self->seq;
    HeapEntry e = {t, ev->seq, ev};
    HeapEntry *h = self->heap;
    Py_ssize_t i = ev->index;
    if (i > 0 && entry_less(e, h[(i - 1) >> 1]))
        sift_up(h, i, e);
    else
        sift_down(h, self->heap_len, i, e);
}

/* Pop the root.  Caller owns the returned entry's ev reference. */
static HeapEntry
heap_pop(LoopCoreObject *self)
{
    HeapEntry top = self->heap[0];
    heap_remove(self, 0);
    top.ev->loop = NULL;
    return top;
}

/* ------------------------------------------------------------------ */
/* LoopCore                                                            */
/* ------------------------------------------------------------------ */

/* Empty the queue, cancelling each event first when `cancel` is set.
 * Every queued event's loop pointer is NULLed before its reference
 * goes: handles that escaped to Python must never touch a dead loop
 * through cancel().  The array is detached first, so a destructor that
 * schedules starts a new one. */
static void
core_release_queue(LoopCoreObject *self, int cancel)
{
    HeapEntry *h = self->heap;
    Py_ssize_t n = self->heap_len;
    self->heap = NULL;
    self->heap_len = self->heap_cap = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        CEventObject *ev = h[i].ev;
        ev->loop = NULL;
        if (cancel) {
            ev->cancelled = 1;
            cevent_release(ev);
        }
        Py_DECREF(ev);
    }
    PyMem_Free(h);
}

static PyObject *
core_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    LoopCoreObject *self = (LoopCoreObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->now = 0.0;
    self->seq = 0;
    self->processed = 0;
    self->heap = NULL;
    self->heap_len = 0;
    self->heap_cap = 0;
    self->check = NULL;
    self->check_require = NULL;
    self->profile = NULL;
    return (PyObject *)self;
}

static int
core_traverse(LoopCoreObject *self, visitproc visit, void *arg)
{
    HeapEntry *h = self->heap;
    for (Py_ssize_t i = 0; i < self->heap_len; i++)
        Py_VISIT(h[i].ev);
    Py_VISIT(self->check);
    Py_VISIT(self->check_require);
    Py_VISIT(self->profile);
    return 0;
}

static int
core_clear_gc(LoopCoreObject *self)
{
    core_release_queue(self, 0);
    Py_CLEAR(self->check);
    Py_CLEAR(self->check_require);
    Py_CLEAR(self->profile);
    return 0;
}

static void
core_dealloc(LoopCoreObject *self)
{
    PyObject_GC_UnTrack(self);
    core_release_queue(self, 0);
    Py_XDECREF(self->check);
    Py_XDECREF(self->check_require);
    Py_XDECREF(self->profile);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
schedule(LoopCoreObject *self, double t, PyObject *callback,
         PyObject *const *extra, Py_ssize_t n_extra)
{
    PyObject *tuple = NULL;
    if (heap_reserve(self) < 0)
        return NULL;
    if (n_extra > EV_INLINE) {
        tuple = PyTuple_New(n_extra);
        if (tuple == NULL)
            return NULL;
        for (Py_ssize_t i = 0; i < n_extra; i++)
            PyTuple_SET_ITEM(tuple, i, Py_NewRef(extra[i]));
    }
    CEventObject *ev;
    if (ev_free_count > 0) {
        ev = ev_freelist[--ev_free_count];
        PyObject_Init((PyObject *)ev, &CEventType);
    }
    else if ((ev = PyObject_GC_New(CEventObject, &CEventType)) == NULL) {
        Py_XDECREF(tuple);
        return NULL;
    }
    ev->time = t;
    ev->seq = ++self->seq;
    ev->callback = Py_NewRef(callback);
    if (tuple != NULL) {
        ev->argv[0] = tuple;
        ev->nargs = -1;
    }
    else {
        for (Py_ssize_t i = 0; i < n_extra; i++)
            ev->argv[i] = Py_NewRef(extra[i]);
        ev->nargs = n_extra;
    }
    ev->cancelled = 0;
    ev->loop = self;
    PyObject_GC_Track((PyObject *)ev);
    HeapEntry e = {t, ev->seq, (CEventObject *)Py_NewRef(ev)};  /* the heap's */
    sift_up(self->heap, self->heap_len++, e);
    return (PyObject *)ev;
}

/* call_at's refusal to schedule behind the clock; always NULL. */
static PyObject *
raise_past(LoopCoreObject *self, PyObject *t)
{
    PyObject *nowf = PyFloat_FromDouble(self->now);
    if (nowf == NULL)
        return NULL;
    PyErr_Format(SimulationError,
                 "cannot schedule at %Rms, already at %Rms", t, nowf);
    Py_DECREF(nowf);
    return NULL;
}

static PyObject *
core_call_later(LoopCoreObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "call_later(delay_ms, callback, *args)");
        return NULL;
    }
    double delay = PyFloat_AsDouble(args[0]);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (delay < 0) {
        PyErr_Format(SimulationError,
                     "cannot schedule %Rms in the past", args[0]);
        return NULL;
    }
    return schedule(self, self->now + delay, args[1], args + 2, nargs - 2);
}

static PyObject *
core_call_at(LoopCoreObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_SetString(PyExc_TypeError,
                        "call_at(time_ms, callback, *args)");
        return NULL;
    }
    double t = PyFloat_AsDouble(args[0]);
    if (t == -1.0 && PyErr_Occurred())
        return NULL;
    if (t < self->now)
        return raise_past(self, args[0]);
    return schedule(self, t, args[1], args + 2, nargs - 2);
}

/* Run one event's callback, advancing the clock first.  The entry's
 * ev reference stays owned by the caller.  Returns -1 on exception. */
static int
execute_event(LoopCoreObject *self, CEventObject *ev)
{
    if (self->check != NULL) {
        /* Mirror HeapEventLoop._execute: always call require so strict
         * runs count this check, passing the verdict as a bool. */
        PyObject *cond = PyBool_FromLong(ev->time >= self->now);
        PyObject *cargs = Py_BuildValue(
            "(Oss)", cond, "loop:time_monotonic",
            "popped an event scheduled in the past");
        Py_DECREF(cond);
        if (cargs == NULL)
            return -1;
        PyObject *kwargs = Py_BuildValue("{s:d,s:d}",
                                         "time_ms", self->now,
                                         "event_time_ms", ev->time);
        if (kwargs == NULL) {
            Py_DECREF(cargs);
            return -1;
        }
        PyObject *res = PyObject_Call(self->check_require, cargs, kwargs);
        Py_DECREF(cargs);
        Py_DECREF(kwargs);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    }
    self->now = ev->time;
    self->processed++;
    /* Held for the call: the callback may cancel its own (already
     * popped) event, which lets go of both. */
    PyObject *callback = Py_NewRef(ev->callback), *held[EV_INLINE];
    Py_ssize_t n_held = ev->nargs < 0 ? 1 : ev->nargs;
    for (Py_ssize_t i = 0; i < n_held; i++)
        held[i] = Py_NewRef(ev->argv[i]);
    PyObject *const *argv = held;
    Py_ssize_t argc = n_held;
    if (ev->nargs < 0) {
        argv = &PyTuple_GET_ITEM(held[0], 0);
        argc = PyTuple_GET_SIZE(held[0]);
    }
    /* Profiled dispatch attributes wall-clock to the callback name. */
    struct timespec t0 = {0, 0}, t1;
    int profiled = self->profile != NULL;
    if (profiled)
        clock_gettime(CLOCK_MONOTONIC, &t0);
    PyObject *res = PyObject_Vectorcall(callback, argv, argc, NULL);
    for (Py_ssize_t i = 0; i < n_held; i++)
        Py_DECREF(held[i]);
    if (res == NULL || !profiled || self->profile == NULL) {
        Py_DECREF(callback);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    clock_gettime(CLOCK_MONOTONIC, &t1);
    Py_DECREF(res);
    double elapsed = (double)(t1.tv_sec - t0.tv_sec)
                     + (double)(t1.tv_nsec - t0.tv_nsec) * 1e-9;
    PyObject *key = PyObject_GetAttrString(callback, "__qualname__");
    if (key == NULL) {
        PyErr_Clear();
        key = PyObject_Repr(callback);
    }
    else if (!PyObject_IsTrue(key)) {
        Py_DECREF(key);
        key = PyObject_Repr(callback);
    }
    Py_DECREF(callback);
    if (key == NULL)
        return -1;
    PyObject *entry = PyDict_GetItemWithError(self->profile, key);
    if (entry == NULL) {
        if (PyErr_Occurred()) {
            Py_DECREF(key);
            return -1;
        }
        entry = Py_BuildValue("[id]", 1, elapsed);
        int rc = entry ? PyDict_SetItem(self->profile, key, entry) : -1;
        Py_XDECREF(entry);
        Py_DECREF(key);
        return rc;
    }
    Py_DECREF(key);
    long long n = PyLong_AsLongLong(PyList_GET_ITEM(entry, 0));
    double secs = PyFloat_AsDouble(PyList_GET_ITEM(entry, 1));
    if (PyErr_Occurred())
        return -1;
    PyObject *count = PyLong_FromLongLong(n + 1);
    if (count == NULL)
        return -1;
    PyObject *total = PyFloat_FromDouble(secs + elapsed);
    if (total == NULL) {
        Py_DECREF(count);
        return -1;
    }
    PyList_SetItem(entry, 0, count);
    PyList_SetItem(entry, 1, total);
    return 0;
}

static PyObject *
core_run(LoopCoreObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"until_ms", "max_events", NULL};
    PyObject *until_obj = Py_None, *max_obj = Py_None;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|OO", kwlist,
                                     &until_obj, &max_obj))
        return NULL;
    int until_set = until_obj != Py_None;
    double until = 0.0;
    if (until_set) {
        until = PyFloat_AsDouble(until_obj);
        if (until == -1.0 && PyErr_Occurred())
            return NULL;
    }
    int max_set = max_obj != Py_None;
    long long max_events = 0;
    if (max_set) {
        max_events = PyLong_AsLongLong(max_obj);
        if (max_events == -1 && PyErr_Occurred())
            return NULL;
    }
    long long executed = 0;
    for (;;) {
        if (self->heap_len == 0)
            Py_RETURN_NONE;
        if (until_set && self->heap[0].time > until) {
            self->now = until;
            Py_RETURN_NONE;
        }
        if (max_set && executed >= max_events) {
            PyErr_Format(SimulationError,
                         "exceeded %lld events; likely livelock",
                         max_events);
            return NULL;
        }
        HeapEntry e = heap_pop(self);
        executed++;
        int rc = execute_event(self, e.ev);
        Py_DECREF(e.ev);
        if (rc < 0)
            return NULL;
    }
}

static PyObject *
core_step(LoopCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    if (self->heap_len == 0)
        Py_RETURN_FALSE;
    HeapEntry e = heap_pop(self);
    int rc = execute_event(self, e.ev);
    Py_DECREF(e.ev);
    if (rc < 0)
        return NULL;
    Py_RETURN_TRUE;
}

static PyObject *
core_run_until(LoopCoreObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"predicate", "max_events", NULL};
    PyObject *predicate;
    long long max_events = 50000000LL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|L", kwlist,
                                     &predicate, &max_events))
        return NULL;
    long long executed = 0;
    for (;;) {
        PyObject *verdict = PyObject_CallNoArgs(predicate);
        if (verdict == NULL)
            return NULL;
        int done = PyObject_IsTrue(verdict);
        Py_DECREF(verdict);
        if (done < 0)
            return NULL;
        if (done)
            Py_RETURN_NONE;
        if (executed >= max_events) {
            PyErr_Format(SimulationError,
                         "exceeded %lld events; likely livelock",
                         max_events);
            return NULL;
        }
        if (self->heap_len == 0)
            Py_RETURN_NONE;
        HeapEntry e = heap_pop(self);
        int rc = execute_event(self, e.ev);
        Py_DECREF(e.ev);
        if (rc < 0)
            return NULL;
        executed++;
    }
}

static PyObject *
core_set_check(LoopCoreObject *self, PyObject *check)
{
    int truthy = PyObject_IsTrue(check);
    if (truthy < 0)
        return NULL;
    Py_CLEAR(self->check);
    Py_CLEAR(self->check_require);
    if (truthy) {
        PyObject *require = PyObject_GetAttrString(check, "require");
        if (require == NULL)
            return NULL;
        Py_INCREF(check);
        self->check = check;
        self->check_require = require;
    }
    Py_RETURN_NONE;
}

static PyObject *
core_enable_profiling(LoopCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    if (self->profile == NULL) {
        self->profile = PyDict_New();
        if (self->profile == NULL)
            return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
core_disable_profiling(LoopCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    Py_CLEAR(self->profile);
    Py_RETURN_NONE;
}

static PyObject *
core_profile_raw(LoopCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    if (self->profile == NULL)
        Py_RETURN_NONE;
    Py_INCREF(self->profile);
    return self->profile;
}

/* HeapEventLoop.close: cancel every queued event and drop the queue. */
static PyObject *
core_close(LoopCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    core_release_queue(self, 1);
    /* The simulation is over: the packets it freed for reuse go back to
     * the allocator, as every freed packet did before the freelist, so
     * they pin no memory the next one would lay out differently. */
    packet_freelist_clear();
    Py_RETURN_NONE;
}

static PyObject *
core_next_event_time(LoopCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    if (self->heap_len == 0)
        Py_RETURN_NONE;
    return PyFloat_FromDouble(self->heap[0].time);
}

static PyObject *
core_get_now(LoopCoreObject *self, void *closure)
{
    return PyFloat_FromDouble(self->now);
}

static PyObject *
core_get_processed(LoopCoreObject *self, void *closure)
{
    return PyLong_FromLongLong(self->processed);
}

static PyObject *
core_get_scheduled(LoopCoreObject *self, void *closure)
{
    return PyLong_FromLongLong(self->seq);
}

static PyObject *
core_get_profiling(LoopCoreObject *self, void *closure)
{
    return PyBool_FromLong(self->profile != NULL);
}

static PyObject *
core_get_check(LoopCoreObject *self, void *closure)
{
    if (self->check == NULL)
        Py_RETURN_NONE;
    Py_INCREF(self->check);
    return self->check;
}

static Py_ssize_t
core_length(LoopCoreObject *self)
{
    return self->heap_len;
}

static PySequenceMethods core_as_sequence = {
    .sq_length = (lenfunc)core_length,
};

static PyMethodDef core_methods[] = {
    {"call_later", (PyCFunction)(void (*)(void))core_call_later,
     METH_FASTCALL,
     "Schedule callback(*args) to run delay_ms from now."},
    {"call_at", (PyCFunction)(void (*)(void))core_call_at,
     METH_FASTCALL,
     "Schedule callback(*args) at absolute time time_ms."},
    {"run", (PyCFunction)(void (*)(void))core_run,
     METH_VARARGS | METH_KEYWORDS,
     "Run events until the queue drains (see HeapEventLoop.run)."},
    {"run_until", (PyCFunction)(void (*)(void))core_run_until,
     METH_VARARGS | METH_KEYWORDS,
     "Run until predicate() becomes true or the queue drains."},
    {"step", (PyCFunction)core_step, METH_NOARGS,
     "Execute the next pending event; False when the queue is empty."},
    {"close", (PyCFunction)core_close, METH_NOARGS,
     "Cancel every pending event and empty the queue; packets kept for "
     "reuse go back to the allocator."},
    {"next_event_time", (PyCFunction)core_next_event_time, METH_NOARGS,
     "Time of the earliest pending live event, or None when empty."},
    {"set_check", (PyCFunction)core_set_check, METH_O,
     "Install (or clear) a repro.check.CheckContext."},
    {"enable_profiling", (PyCFunction)core_enable_profiling, METH_NOARGS,
     "Start attributing wall-clock time and counts per callback."},
    {"disable_profiling", (PyCFunction)core_disable_profiling, METH_NOARGS,
     "Stop profiling and drop collected data."},
    {"_profile_raw", (PyCFunction)core_profile_raw, METH_NOARGS,
     "Raw {qualname: [count, total_seconds]} dict, or None."},
    {NULL}
};

static PyGetSetDef core_getset[] = {
    {"now", (getter)core_get_now, NULL,
     "Current simulated time in milliseconds.", NULL},
    {"processed_events", (getter)core_get_processed, NULL,
     "Number of events executed so far.", NULL},
    {"scheduled_events", (getter)core_get_scheduled, NULL,
     "Number of events scheduled so far (cancelled ones included).", NULL},
    {"profiling_enabled", (getter)core_get_profiling, NULL, NULL, NULL},
    {"_check", (getter)core_get_check, NULL,
     "The installed CheckContext, or None.", NULL},
    {NULL}
};

static PyTypeObject LoopCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.events._ckernel.LoopCore",
    .tp_basicsize = sizeof(LoopCoreObject),
    .tp_dealloc = (destructor)core_dealloc,
    .tp_as_sequence = &core_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "C-accelerated DES scheduler core.",
    .tp_traverse = (traverseproc)core_traverse,
    .tp_clear = (inquiry)core_clear_gc,
    .tp_methods = core_methods,
    .tp_getset = core_getset,
    .tp_new = core_new,
};

/* ------------------------------------------------------------------ */
/* Packet: repro.netsim.packet.Packet                                  */
/* ------------------------------------------------------------------ */

/* The dataclass repro.netsim.packet.Packet as a C type, which that
 * module names Packet whenever the kernel is built.  The numbers are
 * held unboxed (the int fields as long long, the float ones as double,
 * retransmission as a bool); kind, chunks and sack are objects.  The
 * constructor takes the dataclass's arguments with its defaults, draws
 * uid from the same counter when none is passed (_packet_ids, which is
 * PacketIds here), and does __post_init__'s arithmetic: payload_bytes
 * sums the chunks' sizes, and a size_bytes <= 0 becomes HEADER_BYTES
 * plus that.  dataclasses.fields and dataclasses.replace work as on the
 * dataclass, whose field table _install_packet copies, and equality and
 * repr are the dataclass's own methods.  The dataclass stays the packet
 * type without the kernel and the oracle the differential tests hold
 * this one to.  Freed packets go to a bounded freelist, so the send
 * burst after a burst of ACKs allocates none; LoopCore.close() empties
 * it. */

static PyTypeObject *ChunkType = NULL;  /* StreamChunk, a tuple subclass */
static PyObject *KindData = NULL, *KindAck = NULL;
static long long HeaderBytes = 0;
/* StreamChunk's tuple items. */
enum { CH_STREAM_ID, CH_OFFSET, CH_SIZE, CH_FIN };

static PyObject *str_size;
static PyObject *int_zero, *int_one, *int_minus_one, *float_zero,
    *empty_tuple;

static int
as_ll(PyObject *obj, long long *out)
{
    *out = PyLong_AsLongLong(obj);
    return (*out == -1 && PyErr_Occurred()) ? -1 : 0;
}

static int
as_double(PyObject *obj, double *out)
{
    *out = PyFloat_AsDouble(obj);
    return (*out == -1.0 && PyErr_Occurred()) ? -1 : 0;
}

/* chunk.<item> (new reference). */
static PyObject *
chunk_get(PyObject *chunk, int index, PyObject *name)
{
    if (Py_IS_TYPE(chunk, ChunkType)) {
        PyObject *value = PyTuple_GET_ITEM(chunk, index);
        Py_INCREF(value);
        return value;
    }
    return PyObject_GetAttr(chunk, name);
}

typedef struct {
    PyObject_HEAD
    /* Strong; NULL only once deleted or cleared by the collector. */
    PyObject *kind, *chunks, *sack;
    long long seq, ack_seq, size_bytes, uid, conn_start, payload_bytes;
    double ack_delay_ms, sent_at;
    char retransmission;
} PacketObject;

static PyTypeObject PacketType;
#define PKT(obj) ((PacketObject *)(obj))

#define PKT_FREELIST_MAX 1024
static PacketObject *pkt_freelist[PKT_FREELIST_MAX];
static int pkt_free_count = 0;
/* Packets built, and how many of them came off the freelist. */
static long long pkt_built = 0, pkt_reused = 0;
/* The next uid: one counter for every packet, however built. */
static long long pkt_next_uid = 1;

/* Hand every packet on the freelist back to the allocator. */
static void
packet_freelist_clear(void)
{
    while (pkt_free_count > 0)
        PyObject_GC_Del(pkt_freelist[--pkt_free_count]);
}

/* A packet's object field (borrowed), AttributeError once deleted. */
static PyObject *
pkt_object(PyObject *value, const char *name)
{
    if (value == NULL)
        PyErr_Format(PyExc_AttributeError,
                     "'Packet' object has no attribute '%s'", name);
    return value;
}

/* obj is a Packet: 0, else -1 with TypeError. */
static int
require_packet(PyObject *obj)
{
    if (Py_IS_TYPE(obj, &PacketType))
        return 0;
    PyErr_Format(PyExc_TypeError, "expected a Packet, got '%.100s'",
                 Py_TYPE(obj)->tp_name);
    return -1;
}

/* __post_init__'s `payload += chunk.size` over chunks. */
static int
chunks_payload(PyObject *chunks, long long *out)
{
    PyObject *seq = PySequence_Fast(chunks, "chunks must be iterable");
    if (seq == NULL)
        return -1;
    long long payload = 0;
    int rc = 0;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq) && rc == 0; i++) {
        PyObject *chunk = PySequence_Fast_GET_ITEM(seq, i);
        PyObject *size = chunk_get(chunk, CH_SIZE, str_size);
        long long size_v;
        rc = size == NULL ? -1 : as_ll(size, &size_v);
        Py_XDECREF(size);
        if (rc == 0 && __builtin_add_overflow(payload, size_v, &payload)) {
            PyErr_SetString(PyExc_OverflowError, "packet payload too large");
            rc = -1;
        }
    }
    Py_DECREF(seq);
    *out = payload;
    return rc;
}

/* Packet(kind, seq, chunks, ...) from C values (objects borrowed); uid
 * NULL draws the next one. */
static PyObject *
packet_build(PyObject *kind, long long seq, PyObject *chunks,
             long long ack_seq, PyObject *sack, double ack_delay_ms,
             long long size_bytes, const long long *uid, double sent_at,
             int retransmission, long long conn_start)
{
    long long uid_v = uid != NULL ? *uid : pkt_next_uid++;
    long long payload;
    if (chunks_payload(chunks, &payload) < 0)
        return NULL;
    PacketObject *pkt;
    if (pkt_free_count > 0) {
        pkt = pkt_freelist[--pkt_free_count];
        PyObject_Init((PyObject *)pkt, &PacketType);
        pkt_reused++;
    }
    else if ((pkt = PyObject_GC_New(PacketObject, &PacketType)) == NULL) {
        return NULL;
    }
    pkt_built++;
    pkt->kind = Py_NewRef(kind);
    pkt->chunks = Py_NewRef(chunks);
    pkt->sack = Py_NewRef(sack);
    pkt->seq = seq;
    pkt->ack_seq = ack_seq;
    pkt->ack_delay_ms = ack_delay_ms;
    pkt->uid = uid_v;
    pkt->sent_at = sent_at;
    pkt->retransmission = (char)(retransmission != 0);
    pkt->conn_start = conn_start;
    pkt->payload_bytes = payload;
    pkt->size_bytes = size_bytes > 0 ? size_bytes : HeaderBytes + payload;
    PyObject_GC_Track((PyObject *)pkt);
    return (PyObject *)pkt;
}

/* The dataclass's __init__ parameters, in order. */
enum { PI_KIND, PI_SEQ, PI_CHUNKS, PI_ACK_SEQ, PI_SACK, PI_ACK_DELAY, PI_SIZE,
       PI_UID, PI_SENT_AT, PI_RETX, PI_CONN_START, PI_COUNT };
static const char *const packet_params[PI_COUNT] = {
    "kind", "seq", "chunks", "ack_seq", "sack", "ack_delay_ms", "size_bytes",
    "uid", "sent_at", "retransmission", "conn_start"};
static PyObject *packet_param_names[PI_COUNT];  /* interned at module init */

static int
packet_param(PyObject *name)
{
    for (int i = 0; i < PI_COUNT; i++)
        if (name == packet_param_names[i])
            return i;
    for (int i = 0; i < PI_COUNT; i++) {
        int eq = PyObject_RichCompareBool(name, packet_param_names[i], Py_EQ);
        if (eq != 0)
            return eq < 0 ? -2 : i;
    }
    return -1;
}

/* Packet(...), called as the dataclass is. */
static PyObject *
packet_vectorcall(PyObject *type, PyObject *const *args, size_t nargsf,
                  PyObject *kwnames)
{
    Py_ssize_t nargs = PyVectorcall_NARGS(nargsf);
    PyObject *values[PI_COUNT] = {NULL};
    if (ChunkType == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "Packet needs _install_packet first");
        return NULL;
    }
    if (nargs > PI_COUNT) {
        PyErr_Format(PyExc_TypeError,
                     "Packet.__init__() takes from 2 to %d positional arguments "
                     "but %zd were given", PI_COUNT + 1, nargs + 1);
        return NULL;
    }
    for (Py_ssize_t i = 0; i < nargs; i++)
        values[i] = args[i];
    Py_ssize_t nkw = kwnames == NULL ? 0 : PyTuple_GET_SIZE(kwnames);
    for (Py_ssize_t k = 0; k < nkw; k++) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, k);
        int param = packet_param(name);
        if (param == -2)
            return NULL;
        if (param < 0 || values[param] != NULL) {
            PyErr_Format(PyExc_TypeError, param < 0
                         ? "Packet.__init__() got an unexpected keyword argument '%S'"
                         : "Packet.__init__() got multiple values for argument '%S'",
                         name);
            return NULL;
        }
        values[param] = args[nargs + k];
    }
    if (values[PI_KIND] == NULL) {
        PyErr_SetString(PyExc_TypeError, "Packet.__init__() missing 1 required "
                        "positional argument: 'kind'");
        return NULL;
    }
    long long seq = -1, ack_seq = -1, size = 0, uid = 0, conn_start = -1;
    double ack_delay = 0.0, sent_at = -1.0;
    int retx = 0;
    if ((values[PI_SEQ] && as_ll(values[PI_SEQ], &seq) < 0)
        || (values[PI_ACK_SEQ] && as_ll(values[PI_ACK_SEQ], &ack_seq) < 0)
        || (values[PI_ACK_DELAY] && as_double(values[PI_ACK_DELAY], &ack_delay) < 0)
        || (values[PI_SIZE] && as_ll(values[PI_SIZE], &size) < 0)
        || (values[PI_UID] && as_ll(values[PI_UID], &uid) < 0)
        || (values[PI_SENT_AT] && as_double(values[PI_SENT_AT], &sent_at) < 0)
        || (values[PI_RETX] && (retx = PyObject_IsTrue(values[PI_RETX])) < 0)
        || (values[PI_CONN_START] && as_ll(values[PI_CONN_START], &conn_start) < 0))
        return NULL;
    return packet_build(
        values[PI_KIND], seq, values[PI_CHUNKS] ? values[PI_CHUNKS] : empty_tuple,
        ack_seq, values[PI_SACK] ? values[PI_SACK] : empty_tuple, ack_delay,
        size, values[PI_UID] ? &uid : NULL, sent_at, retx, conn_start);
}

static PyObject *
packet_tp_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    return PyVectorcall_Call((PyObject *)type, args, kwds);
}

static int
packet_traverse(PacketObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->kind);
    Py_VISIT(self->chunks);
    Py_VISIT(self->sack);
    return 0;
}

static int
packet_clear(PacketObject *self)
{
    Py_CLEAR(self->kind);
    Py_CLEAR(self->chunks);
    Py_CLEAR(self->sack);
    return 0;
}

static void
packet_dealloc(PacketObject *self)
{
    PyObject_GC_UnTrack(self);
    packet_clear(self);
    if (pkt_free_count < PKT_FREELIST_MAX)
        pkt_freelist[pkt_free_count++] = self;
    else
        PyObject_GC_Del(self);
}

/* Equality and repr are the dataclass's own __eq__ and __repr__,
 * which read the fields by name: the same answers, by construction. */
static PyObject *PacketEq = NULL, *PacketRepr = NULL;

static PyObject *
packet_richcompare(PyObject *a, PyObject *b, int op)
{
    if (op != Py_EQ && op != Py_NE)
        Py_RETURN_NOTIMPLEMENTED;
    PyObject *eq = PyObject_CallFunctionObjArgs(PacketEq, a, b, NULL);
    if (eq == NULL || eq == Py_NotImplemented || op == Py_EQ)
        return eq;
    int truth = PyObject_IsTrue(eq);
    Py_DECREF(eq);
    return truth < 0 ? NULL : PyBool_FromLong(!truth);
}

static PyObject *
packet_repr(PyObject *self)
{
    return PyObject_CallOneArg(PacketRepr, self);
}

#define PKT_MEMBER(name, type) \
    {#name, type, offsetof(PacketObject, name), 0, NULL}

static PyMemberDef packet_members[] = {
    PKT_MEMBER(kind, T_OBJECT_EX),
    PKT_MEMBER(seq, T_LONGLONG),
    PKT_MEMBER(chunks, T_OBJECT_EX),
    PKT_MEMBER(ack_seq, T_LONGLONG),
    PKT_MEMBER(sack, T_OBJECT_EX),
    PKT_MEMBER(ack_delay_ms, T_DOUBLE),
    PKT_MEMBER(size_bytes, T_LONGLONG),
    PKT_MEMBER(uid, T_LONGLONG),
    PKT_MEMBER(sent_at, T_DOUBLE),
    PKT_MEMBER(retransmission, T_BOOL),
    PKT_MEMBER(conn_start, T_LONGLONG),
    PKT_MEMBER(payload_bytes, T_LONGLONG),
    {NULL}
};

static PyTypeObject PacketType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.netsim.packet.Packet",
    .tp_basicsize = sizeof(PacketObject),
    .tp_dealloc = (destructor)packet_dealloc,
    .tp_repr = packet_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A simulated packet (C-accelerated; see repro.netsim.packet).",
    .tp_traverse = (traverseproc)packet_traverse,
    .tp_clear = (inquiry)packet_clear,
    .tp_richcompare = packet_richcompare,
    .tp_members = packet_members,
    .tp_new = packet_tp_new,
    .tp_vectorcall = packet_vectorcall,
};

/* PacketIds: next() draws a uid from the packets' counter. */
static PyObject *
packet_ids_next(PyObject *self)
{
    return PyLong_FromLongLong(pkt_next_uid++);
}

static PyTypeObject PacketIdsType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.events._ckernel.PacketIds",
    .tp_basicsize = sizeof(PyObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_doc = "The counter Packet.uid draws from (an iterator).",
    .tp_iter = PyObject_SelfIter,
    .tp_iternext = packet_ids_next,
};

/* ------------------------------------------------------------------ */
/* LinkCore: the per-packet half of repro.netsim.link.Link             */
/* ------------------------------------------------------------------ */

/* The arithmetic below is repro.netsim.link._PyLinkCore's, expression
 * for expression and in the same order (the module is built with
 * -ffp-contract=off so no a*b+c is fused), and the Python hooks run in
 * the same order with the same arguments: both cores give the same
 * doubles, the same RNG draws and the same (time, seq) schedule. */

/* Installed by repro.netsim.link: the NoLoss class, whose should_drop
 * draws nothing and is therefore never called, and the BernoulliLoss
 * class, whose draw (exact type only) LinkCore makes itself. */
static PyObject *NoLossType = NULL;
static PyObject *BernoulliLossType = NULL;

/* Interned attribute names, made once at module init. */
static PyObject *str_now, *str_size_bytes, *str_should_drop, *str_uniform,
    *str_on_transmit, *str_call_at, *str_call_later, *str_random,
    *str_loss_rate, *str_visit_started_at;
static PyObject *str_sent_packets, *str_dropped_packets,
    *str_delivered_packets, *str_sent_bytes, *str_delivered_bytes,
    *str_busy_time_ms;

/* One accepted-but-not-yet-due delivery. */
typedef struct { double at; long long size; } Pending;

typedef struct {
    PyObject_HEAD
    PyObject *loop;
    PyObject *loss;
    PyObject *rng;
    PyObject *drop_filter;    /* None (or NULL) when unset */
    PyObject *sampler;        /* None (or NULL) when unset */
    PyObject *stats;          /* the LinkStats object _stats fills */
    /* The next hop's transmit, or None (or NULL): a delivery becomes
     * relay(packet, on_deliver), relay_delay_ms after arrival. */
    PyObject *relay;
    double relay_delay_ms;
    /* delay_ms / rate_mbps / jitter_ms as assigned (reads return the
     * same object) and as doubles for the arithmetic. */
    PyObject *delay_obj, *rate_obj, *jitter_obj;
    double delay_ms, rate_mbps, jitter_ms;
    int has_rate;
    double tx_free_at;
    double last_delivery_at;
    /* The delivery FIFO: a ring of cap (a power of two) slots. */
    Pending *ring;
    Py_ssize_t head, len, cap;
    /* LinkStats counters. */
    long long sent_packets, dropped_packets, delivered_packets;
    long long sent_bytes, delivered_bytes;
    double busy_time_ms;
} LinkCoreObject;

static int
ring_push(LinkCoreObject *self, double at, long long size)
{
    if (self->len == self->cap) {
        Py_ssize_t cap = self->cap ? self->cap * 2 : 16;
        Pending *mem = PyMem_Malloc(cap * sizeof(Pending));
        if (mem == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < self->len; i++)
            mem[i] = self->ring[(self->head + i) & (self->cap - 1)];
        PyMem_Free(self->ring);
        self->ring = mem;
        self->cap = cap;
        self->head = 0;
    }
    Pending *slot = &self->ring[(self->head + self->len) & (self->cap - 1)];
    slot->at = at;
    slot->size = size;
    self->len++;
    return 0;
}

/* Fold deliveries due by now into the delivered counters. */
static void
link_settle_to(LinkCoreObject *self, double now)
{
    while (self->len && self->ring[self->head].at <= now) {
        self->delivered_packets++;
        self->delivered_bytes += self->ring[self->head].size;
        self->head = (self->head + 1) & (self->cap - 1);
        self->len--;
    }
}

/* Serialization: the transmitter frees up at the returned time.  The
 * compare keeps max()'s tie rule (tx_free_at only when it is later). */
static double
link_serialize(LinkCoreObject *self, double now, long long size)
{
    double start = self->tx_free_at > now ? self->tx_free_at : now;
    double tx_done;
    if (!self->has_rate) {
        tx_done = start;
    }
    else {
        tx_done = start + (double)(size * 8) / (self->rate_mbps * 1000.0);
        self->busy_time_ms += tx_done - start;
    }
    self->tx_free_at = tx_done;
    return tx_done;
}

/* FIFO clamp (no packet overtakes its predecessor) and enqueue; stores
 * the delivery time in *deliver_at.  -1 on memory error. */
static int
link_enqueue(LinkCoreObject *self, double *deliver_at, long long size)
{
    if (*deliver_at < self->last_delivery_at)
        *deliver_at = self->last_delivery_at;
    self->last_delivery_at = *deliver_at;
    return ring_push(self, *deliver_at, size);
}

static int
link_require(PyObject *value, const char *name)
{
    if (value != NULL)
        return 0;
    PyErr_Format(PyExc_AttributeError, "link has no attribute '%s'", name);
    return -1;
}

/* BernoulliLoss.should_drop, made here: loss_rate is read per packet,
 * a rate of 0.0 draws nothing, otherwise one rng.random() is compared
 * with it.  Subclasses keep their own should_drop. */
static int
bernoulli_draw(LinkCoreObject *self, PyObject *loss, int *dropped)
{
    PyObject *rate_obj = PyObject_GetAttr(loss, str_loss_rate);
    if (rate_obj == NULL)
        return -1;
    double rate = PyFloat_AsDouble(rate_obj);
    Py_DECREF(rate_obj);
    if (rate == -1.0 && PyErr_Occurred())
        return -1;
    if (rate == 0.0)
        return 0;
    if (link_require(self->rng, "rng") < 0)
        return -1;
    PyObject *draw = PyObject_CallMethodNoArgs(self->rng, str_random);
    if (draw == NULL)
        return -1;
    double value = PyFloat_AsDouble(draw);
    Py_DECREF(draw);
    if (value == -1.0 && PyErr_Occurred())
        return -1;
    *dropped = value < rate;
    return 0;
}

/* Schedule callback(*args) at t on the link's loop: the kernel's own
 * schedule() (call_at's seq and past-time rule without a bound-method
 * call) on a LoopCore, call_at otherwise. */
static int
link_schedule_at(PyObject *loop, double t, PyObject *callback,
                 PyObject *const *extra, Py_ssize_t n_extra)
{
    PyObject *event;
    if (PyObject_TypeCheck(loop, &LoopCoreType)) {
        LoopCoreObject *core = (LoopCoreObject *)loop;
        if (t < core->now) {
            PyObject *at = PyFloat_FromDouble(t);
            if (at == NULL)
                return -1;
            raise_past(core, at);
            Py_DECREF(at);
            return -1;
        }
        event = schedule(core, t, callback, extra, n_extra);
    }
    else {
        PyObject *at = PyFloat_FromDouble(t);
        if (at == NULL)
            return -1;
        PyObject *cargs[6] = {loop, at, callback, NULL, NULL, NULL};
        assert(n_extra <= 3);
        for (Py_ssize_t i = 0; i < n_extra; i++)
            cargs[3 + i] = extra[i];
        event = PyObject_VectorcallMethod(str_call_at, cargs, 3 + n_extra, NULL);
        Py_DECREF(at);
    }
    if (event == NULL)
        return -1;
    Py_DECREF(event);
    return 0;
}

/* Set by module init: the module's _relay_later function. */
static PyObject *RelayLater = NULL;
static PyTypeObject LinkCoreType;

static PyObject *
link_transmit(LinkCoreObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "transmit(packet, on_deliver)");
        return NULL;
    }
    PyObject *packet = args[0], *on_deliver = args[1];
    PyObject *loop = self->loop;
    if (link_require(loop, "loop") < 0)
        return NULL;
    double now;
    if (PyObject_TypeCheck(loop, &LoopCoreType)) {
        now = ((LoopCoreObject *)loop)->now;
    }
    else {
        PyObject *now_obj = PyObject_GetAttr(loop, str_now);
        if (now_obj == NULL)
            return NULL;
        now = PyFloat_AsDouble(now_obj);
        Py_DECREF(now_obj);
        if (now == -1.0 && PyErr_Occurred())
            return NULL;
    }
    if (self->len && self->ring[self->head].at <= now)
        link_settle_to(self, now);
    /* packet.size_bytes: read in place on a Packet. */
    long long size;
    PyObject *size_obj = NULL;
    if (Py_IS_TYPE(packet, &PacketType)) {
        size = PKT(packet)->size_bytes;
    }
    else {
        size_obj = PyObject_GetAttr(packet, str_size_bytes);
        if (size_obj == NULL || as_ll(size_obj, &size) < 0) {
            Py_XDECREF(size_obj);
            return NULL;
        }
    }
    self->sent_packets++;
    self->sent_bytes += size;
    double tx_done = link_serialize(self, now, size);

    PyObject *sampler = self->sampler;
    if (sampler != NULL && sampler != Py_None) {
        if (size_obj == NULL && (size_obj = PyLong_FromLongLong(size)) == NULL)
            return NULL;
        PyObject *now_f = PyFloat_FromDouble(now);
        PyObject *done_f = PyFloat_FromDouble(tx_done);
        PyObject *res = NULL;
        if (now_f != NULL && done_f != NULL) {
            PyObject *margs[4] = {sampler, now_f, done_f, size_obj};
            res = PyObject_VectorcallMethod(str_on_transmit, margs, 4, NULL);
        }
        Py_XDECREF(now_f);
        Py_XDECREF(done_f);
        if (res == NULL) {
            Py_DECREF(size_obj);
            return NULL;
        }
        Py_DECREF(res);
    }
    Py_XDECREF(size_obj);

    /* The loss draw, then the drop filter (called even when the draw
     * already dropped the packet, so a filtered run keeps the RNG
     * stream of an unfiltered one); NoLoss draws nothing and is
     * skipped.  Truth tests come after both calls, as in Python. */
    PyObject *loss = self->loss;
    if (link_require(loss, "loss") < 0)
        return NULL;
    PyObject *loss_res = NULL, *filter_res = NULL;
    int loss_dropped = 0;
    if ((PyObject *)Py_TYPE(loss) == BernoulliLossType) {
        if (bernoulli_draw(self, loss, &loss_dropped) < 0)
            return NULL;
    }
    else if ((PyObject *)Py_TYPE(loss) != NoLossType) {
        if (link_require(self->rng, "rng") < 0)
            return NULL;
        loss_res = PyObject_CallMethodOneArg(loss, str_should_drop, self->rng);
        if (loss_res == NULL)
            return NULL;
    }
    PyObject *drop_filter = self->drop_filter;
    if (drop_filter != NULL && drop_filter != Py_None) {
        filter_res = PyObject_CallOneArg(drop_filter, packet);
        if (filter_res == NULL) {
            Py_XDECREF(loss_res);
            return NULL;
        }
    }
    int dropped = loss_res != NULL ? PyObject_IsTrue(loss_res) : loss_dropped;
    if (dropped == 0 && filter_res != NULL)
        dropped = PyObject_IsTrue(filter_res);
    Py_XDECREF(loss_res);
    Py_XDECREF(filter_res);
    if (dropped < 0)
        return NULL;
    if (dropped) {
        self->dropped_packets++;
        Py_RETURN_FALSE;
    }

    double delay = self->delay_ms;
    if (self->jitter_ms > 0) {
        if (link_require(self->rng, "rng") < 0)
            return NULL;
        PyObject *uargs[3] = {self->rng, float_zero, self->jitter_obj};
        PyObject *draw = PyObject_VectorcallMethod(str_uniform, uargs, 3, NULL);
        if (draw == NULL)
            return NULL;
        double jitter = PyFloat_AsDouble(draw);
        Py_DECREF(draw);
        if (jitter == -1.0 && PyErr_Occurred())
            return NULL;
        delay += jitter;
    }
    double deliver_at = tx_done + delay;
    if (link_enqueue(self, &deliver_at, size) < 0)
        return NULL;

    /* One delivery event: on_deliver(packet), or with a relay target
     * relay(packet, on_deliver) -- through _relay_later(self, packet,
     * on_deliver) when the hop adds a forward delay.  The loop is read
     * again, as Python's self.loop.call_at does: the hooks above ran
     * arbitrary code. */
    loop = self->loop;
    if (link_require(loop, "loop") < 0)
        return NULL;
    PyObject *relay = self->relay;
    int rc;
    if (relay == NULL || relay == Py_None) {
        rc = link_schedule_at(loop, deliver_at, on_deliver, &packet, 1);
    }
    else if (self->relay_delay_ms > 0) {
        PyObject *extra[3] = {(PyObject *)self, packet, on_deliver};
        rc = link_schedule_at(loop, deliver_at, RelayLater, extra, 3);
    }
    else {
        PyObject *extra[2] = {packet, on_deliver};
        rc = link_schedule_at(loop, deliver_at, relay, extra, 2);
    }
    if (rc < 0)
        return NULL;
    Py_RETURN_TRUE;
}

/* A relayed packet's arrival on a hop with a forward delay: schedule
 * relay(packet, on_deliver) relay_delay_ms from now, at the time
 * call_later computes. */
static PyObject *
ckernel_relay_later(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 3 || !PyObject_TypeCheck(args[0], &LinkCoreType)) {
        PyErr_SetString(PyExc_TypeError,
                        "_relay_later(link, packet, on_deliver)");
        return NULL;
    }
    LinkCoreObject *link = (LinkCoreObject *)args[0];
    PyObject *loop = link->loop, *relay = link->relay;
    if (link_require(loop, "loop") < 0)
        return NULL;
    if (relay == NULL || relay == Py_None) {
        PyErr_SetString(PyExc_AttributeError, "link has no relay target");
        return NULL;
    }
    PyObject *event;
    if (PyObject_TypeCheck(loop, &LoopCoreType)) {
        LoopCoreObject *core = (LoopCoreObject *)loop;
        event = schedule(core, core->now + link->relay_delay_ms, relay,
                         args + 1, 2);
    }
    else {
        PyObject *delay = PyFloat_FromDouble(link->relay_delay_ms);
        if (delay == NULL)
            return NULL;
        PyObject *cargs[5] = {loop, delay, relay, args[1], args[2]};
        event = PyObject_VectorcallMethod(str_call_later, cargs, 5, NULL);
        Py_DECREF(delay);
    }
    if (event == NULL)
        return NULL;
    Py_DECREF(event);
    Py_RETURN_NONE;
}

static PyObject *
link_reserve_transmit(LinkCoreObject *self, PyObject *const *args,
                      Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_SetString(PyExc_TypeError, "reserve_transmit(size_bytes, now)");
        return NULL;
    }
    long long size = PyLong_AsLongLong(args[0]);
    if (size == -1 && PyErr_Occurred())
        return NULL;
    double now = PyFloat_AsDouble(args[1]);
    if (now == -1.0 && PyErr_Occurred())
        return NULL;
    if (self->len && self->ring[self->head].at <= now)
        link_settle_to(self, now);
    self->sent_packets++;
    self->sent_bytes += size;
    double deliver_at = link_serialize(self, now, size) + self->delay_ms;
    if (link_enqueue(self, &deliver_at, size) < 0)
        return NULL;
    return PyFloat_FromDouble(deliver_at);
}

static PyObject *
link_settle(LinkCoreObject *self, PyObject *arg)
{
    double now = PyFloat_AsDouble(arg);
    if (now == -1.0 && PyErr_Occurred())
        return NULL;
    link_settle_to(self, now);
    Py_RETURN_NONE;
}

/* delay_ms / rate_mbps / jitter_ms: the assigned object, cached as a
 * double.  rate_mbps may be None (infinitely fast serialization). */
static PyObject *
link_get_number(PyObject *obj, const char *name)
{
    if (link_require(obj, name) < 0)
        return NULL;
    Py_INCREF(obj);
    return obj;
}

static int
link_set_number(PyObject **slot, double *cache, PyObject *value, int none_ok)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete a link parameter");
        return -1;
    }
    double v = 0.0;
    if (!(none_ok && value == Py_None)) {
        v = PyFloat_AsDouble(value);
        if (v == -1.0 && PyErr_Occurred())
            return -1;
    }
    Py_INCREF(value);
    Py_XSETREF(*slot, value);
    *cache = v;
    return 0;
}

static PyObject *
link_get_delay(LinkCoreObject *self, void *closure)
{
    return link_get_number(self->delay_obj, "delay_ms");
}

static int
link_set_delay(LinkCoreObject *self, PyObject *value, void *closure)
{
    return link_set_number(&self->delay_obj, &self->delay_ms, value, 0);
}

static PyObject *
link_get_rate(LinkCoreObject *self, void *closure)
{
    return link_get_number(self->rate_obj, "rate_mbps");
}

static int
link_set_rate(LinkCoreObject *self, PyObject *value, void *closure)
{
    if (link_set_number(&self->rate_obj, &self->rate_mbps, value, 1) < 0)
        return -1;
    self->has_rate = value != Py_None;
    return 0;
}

static PyObject *
link_get_jitter(LinkCoreObject *self, void *closure)
{
    return link_get_number(self->jitter_obj, "jitter_ms");
}

static int
link_set_jitter(LinkCoreObject *self, PyObject *value, void *closure)
{
    return link_set_number(&self->jitter_obj, &self->jitter_ms, value, 0);
}

/* _pending: the FIFO as a list of (deliver_at, size_bytes) pairs;
 * assigning an iterable of pairs replaces it. */
static PyObject *
link_get_pending(LinkCoreObject *self, void *closure)
{
    PyObject *out = PyList_New(self->len);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < self->len; i++) {
        Pending *p = &self->ring[(self->head + i) & (self->cap - 1)];
        PyObject *pair = Py_BuildValue("(dL)", p->at, p->size);
        if (pair == NULL) {
            Py_DECREF(out);
            return NULL;
        }
        PyList_SET_ITEM(out, i, pair);
    }
    return out;
}

static int
link_set_pending(LinkCoreObject *self, PyObject *value, void *closure)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _pending");
        return -1;
    }
    PyObject *items = PySequence_List(value);
    if (items == NULL)
        return -1;
    self->head = 0;
    self->len = 0;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(items); i++) {
        double at;
        long long size;
        if (!PyArg_ParseTuple(PyList_GET_ITEM(items, i), "dL", &at, &size)
            || ring_push(self, at, size) < 0) {
            Py_DECREF(items);
            return -1;
        }
    }
    Py_DECREF(items);
    return 0;
}

/* _stats: the link's LinkStats object with the counters copied in (no
 * settling); assigning a LinkStats adopts it and loads its counters. */
static PyObject *
link_get_stats(LinkCoreObject *self, void *closure)
{
    PyObject *stats = self->stats;
    if (link_require(stats, "_stats") < 0)
        return NULL;
    Py_INCREF(stats);  /* the setattrs below may run Python code */
    PyObject *names[6] = {str_sent_packets, str_dropped_packets,
                          str_delivered_packets, str_sent_bytes,
                          str_delivered_bytes, str_busy_time_ms};
    PyObject *values[6] = {
        PyLong_FromLongLong(self->sent_packets),
        PyLong_FromLongLong(self->dropped_packets),
        PyLong_FromLongLong(self->delivered_packets),
        PyLong_FromLongLong(self->sent_bytes),
        PyLong_FromLongLong(self->delivered_bytes),
        PyFloat_FromDouble(self->busy_time_ms),
    };
    int rc = 0;
    for (int i = 0; i < 6; i++) {
        if (rc == 0 && (values[i] == NULL
                        || PyObject_SetAttr(stats, names[i], values[i]) < 0))
            rc = -1;
        Py_XDECREF(values[i]);
    }
    if (rc < 0) {
        Py_DECREF(stats);
        return NULL;
    }
    return stats;
}

static int
link_set_stats(LinkCoreObject *self, PyObject *value, void *closure)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _stats");
        return -1;
    }
    long long counts[5];
    PyObject *names[5] = {str_sent_packets, str_dropped_packets,
                          str_delivered_packets, str_sent_bytes,
                          str_delivered_bytes};
    for (int i = 0; i < 5; i++) {
        PyObject *v = PyObject_GetAttr(value, names[i]);
        if (v == NULL)
            return -1;
        counts[i] = PyLong_AsLongLong(v);
        Py_DECREF(v);
        if (counts[i] == -1 && PyErr_Occurred())
            return -1;
    }
    PyObject *busy_obj = PyObject_GetAttr(value, str_busy_time_ms);
    if (busy_obj == NULL)
        return -1;
    double busy = PyFloat_AsDouble(busy_obj);
    Py_DECREF(busy_obj);
    if (busy == -1.0 && PyErr_Occurred())
        return -1;
    self->sent_packets = counts[0];
    self->dropped_packets = counts[1];
    self->delivered_packets = counts[2];
    self->sent_bytes = counts[3];
    self->delivered_bytes = counts[4];
    self->busy_time_ms = busy;
    Py_INCREF(value);
    Py_XSETREF(self->stats, value);
    return 0;
}

static PyObject *
link_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    /* tp_alloc zero-fills: no objects, an empty FIFO, zero counters. */
    return type->tp_alloc(type, 0);
}

static int
link_traverse(LinkCoreObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->loop);
    Py_VISIT(self->loss);
    Py_VISIT(self->rng);
    Py_VISIT(self->drop_filter);
    Py_VISIT(self->sampler);
    Py_VISIT(self->stats);
    Py_VISIT(self->relay);
    Py_VISIT(self->delay_obj);
    Py_VISIT(self->rate_obj);
    Py_VISIT(self->jitter_obj);
    return 0;
}

static int
link_clear_gc(LinkCoreObject *self)
{
    Py_CLEAR(self->loop);
    Py_CLEAR(self->loss);
    Py_CLEAR(self->rng);
    Py_CLEAR(self->drop_filter);
    Py_CLEAR(self->sampler);
    Py_CLEAR(self->stats);
    Py_CLEAR(self->relay);
    Py_CLEAR(self->delay_obj);
    Py_CLEAR(self->rate_obj);
    Py_CLEAR(self->jitter_obj);
    return 0;
}

static void
link_dealloc(LinkCoreObject *self)
{
    PyObject_GC_UnTrack(self);
    link_clear_gc(self);
    PyMem_Free(self->ring);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef link_methods[] = {
    {"transmit", (PyCFunction)(void (*)(void))link_transmit, METH_FASTCALL,
     "Send packet; returns False if it was dropped (see _PyLinkCore)."},
    {"reserve_transmit",
     (PyCFunction)(void (*)(void))link_reserve_transmit, METH_FASTCALL,
     "Account one guaranteed delivery analytically; returns its time."},
    {"settle", (PyCFunction)link_settle, METH_O,
     "Fold deliveries due by now into the stats."},
    {NULL}
};

static PyMemberDef link_members[] = {
    {"loop", T_OBJECT_EX, offsetof(LinkCoreObject, loop), 0,
     "The simulation event loop."},
    {"loss", T_OBJECT_EX, offsetof(LinkCoreObject, loss), 0,
     "Loss model applied per packet at ingress."},
    {"rng", T_OBJECT_EX, offsetof(LinkCoreObject, rng), 0,
     "Randomness source for loss and jitter."},
    {"drop_filter", T_OBJECT, offsetof(LinkCoreObject, drop_filter), 0,
     "Optional deterministic drop hook, or None."},
    {"sampler", T_OBJECT, offsetof(LinkCoreObject, sampler), 0,
     "Optional sim-time metrics sampler, or None."},
    {"relay", T_OBJECT, offsetof(LinkCoreObject, relay), 0,
     "The next hop's transmit, or None: deliveries go to it."},
    {"relay_delay_ms", T_DOUBLE, offsetof(LinkCoreObject, relay_delay_ms), 0,
     "Forward delay before a relayed packet enters the next hop."},
    {"_tx_free_at", T_DOUBLE, offsetof(LinkCoreObject, tx_free_at), 0, NULL},
    {"_last_delivery_at", T_DOUBLE,
     offsetof(LinkCoreObject, last_delivery_at), 0, NULL},
    {NULL}
};

static PyGetSetDef link_getset[] = {
    {"delay_ms", (getter)link_get_delay, (setter)link_set_delay,
     "One-way propagation delay in ms.", NULL},
    {"rate_mbps", (getter)link_get_rate, (setter)link_set_rate,
     "Bottleneck rate in Mbps, or None.", NULL},
    {"jitter_ms", (getter)link_get_jitter, (setter)link_set_jitter,
     "Uniform jitter bound in ms.", NULL},
    {"_pending", (getter)link_get_pending, (setter)link_set_pending,
     "The delivery FIFO as (deliver_at, size_bytes) pairs.", NULL},
    {"_stats", (getter)link_get_stats, (setter)link_set_stats,
     "The LinkStats object, counters copied in, not settled.", NULL},
    {NULL}
};

static PyTypeObject LinkCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.events._ckernel.LinkCore",
    .tp_basicsize = sizeof(LinkCoreObject),
    .tp_dealloc = (destructor)link_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "C core of repro.netsim.link.Link: transmit, reserve_transmit, "
              "settle, the delivery FIFO and the counters.",
    .tp_traverse = (traverseproc)link_traverse,
    .tp_clear = (inquiry)link_clear_gc,
    .tp_methods = link_methods,
    .tp_members = link_members,
    .tp_getset = link_getset,
    .tp_new = link_new,
};

/* ------------------------------------------------------------------ */
/* WindowedSend: a FaultedPath's send, its drop windows tested in C    */
/* ------------------------------------------------------------------ */

/* repro.faults.inject.FaultedPath compiles the (start_ms, end_ms) of
 * every fault window that drops its connection's packets once; this
 * callable tests them per packet.  The visit anchor is read from the
 * injector at send time (begin_visit moves it), so the verdict is
 * FaultInjector.packet_dropped's: rel = loop.now - _visit_started_at,
 * dropped when start <= rel < end for any window.  A dropped packet
 * returns False without touching the path; otherwise the wrapped send
 * runs and its verdict is returned. */

typedef struct {
    PyObject_HEAD
    vectorcallfunc vectorcall;
    PyObject *send;           /* the wrapped path's send */
    PyObject *loop;           /* the injector's loop */
    PyObject *injector;       /* holds the visit anchor */
    double *windows;          /* n (start, end) pairs */
    Py_ssize_t n;
} WindowedSendObject;

static PyTypeObject WindowedSendType;

static PyObject *
windowed_send_call(WindowedSendObject *self, PyObject *const *args,
                   size_t nargsf, PyObject *kwnames)
{
    Py_ssize_t nargs = PyVectorcall_NARGS(nargsf);
    if (nargs != 2 || kwnames != NULL) {
        PyErr_SetString(PyExc_TypeError, "send(packet, on_deliver)");
        return NULL;
    }
    double now;
    if (PyObject_TypeCheck(self->loop, &LoopCoreType)) {
        now = ((LoopCoreObject *)self->loop)->now;
    }
    else {
        PyObject *now_obj = PyObject_GetAttr(self->loop, str_now);
        if (now_obj == NULL)
            return NULL;
        now = PyFloat_AsDouble(now_obj);
        Py_DECREF(now_obj);
        if (now == -1.0 && PyErr_Occurred())
            return NULL;
    }
    PyObject *anchor_obj = PyObject_GetAttr(self->injector,
                                            str_visit_started_at);
    if (anchor_obj == NULL)
        return NULL;
    double anchor = PyFloat_AsDouble(anchor_obj);
    Py_DECREF(anchor_obj);
    if (anchor == -1.0 && PyErr_Occurred())
        return NULL;
    double rel = now - anchor;
    const double *w = self->windows;
    for (Py_ssize_t i = 0; i < self->n; i++) {
        if (w[2 * i] <= rel && rel < w[2 * i + 1])
            Py_RETURN_FALSE;
    }
    return PyObject_Vectorcall(self->send, args, nargs, NULL);
}

static PyObject *
windowed_send_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"send", "loop", "injector", "windows", NULL};
    PyObject *send, *loop, *injector, *windows;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOO:WindowedSend", kwlist,
                                     &send, &loop, &injector, &windows))
        return NULL;
    PyObject *items = PySequence_Tuple(windows);
    if (items == NULL)
        return NULL;
    Py_ssize_t n = PyTuple_GET_SIZE(items);
    double *mem = PyMem_Malloc((n ? n : 1) * 2 * sizeof(double));
    if (mem == NULL) {
        Py_DECREF(items);
        return PyErr_NoMemory();
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        if (!PyArg_ParseTuple(PyTuple_GET_ITEM(items, i), "dd",
                              &mem[2 * i], &mem[2 * i + 1])) {
            PyMem_Free(mem);
            Py_DECREF(items);
            return NULL;
        }
    }
    Py_DECREF(items);
    WindowedSendObject *self = (WindowedSendObject *)type->tp_alloc(type, 0);
    if (self == NULL) {
        PyMem_Free(mem);
        return NULL;
    }
    self->vectorcall = (vectorcallfunc)windowed_send_call;
    Py_INCREF(send);
    self->send = send;
    Py_INCREF(loop);
    self->loop = loop;
    Py_INCREF(injector);
    self->injector = injector;
    self->windows = mem;
    self->n = n;
    return (PyObject *)self;
}

static int
windowed_send_traverse(WindowedSendObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->send);
    Py_VISIT(self->loop);
    Py_VISIT(self->injector);
    return 0;
}

static int
windowed_send_clear(WindowedSendObject *self)
{
    Py_CLEAR(self->send);
    Py_CLEAR(self->loop);
    Py_CLEAR(self->injector);
    return 0;
}

static void
windowed_send_dealloc(WindowedSendObject *self)
{
    PyObject_GC_UnTrack(self);
    windowed_send_clear(self);
    PyMem_Free(self->windows);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
windowed_send_repr(WindowedSendObject *self)
{
    return PyUnicode_FromFormat("<WindowedSend %zd windows over %R>",
                                self->n, self->send);
}

static PyTypeObject WindowedSendType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.events._ckernel.WindowedSend",
    .tp_basicsize = sizeof(WindowedSendObject),
    .tp_dealloc = (destructor)windowed_send_dealloc,
    .tp_vectorcall_offset = offsetof(WindowedSendObject, vectorcall),
    .tp_call = PyVectorcall_Call,
    .tp_repr = (reprfunc)windowed_send_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC
                | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "WindowedSend(send, loop, injector, windows): send(packet, "
              "on_deliver) unless a fault window is open.",
    .tp_traverse = (traverseproc)windowed_send_traverse,
    .tp_clear = (inquiry)windowed_send_clear,
    .tp_new = windowed_send_new,
};

/* ------------------------------------------------------------------ */
/* TransportCore: the send/ack/receive loop of a BaseConnection        */
/* ------------------------------------------------------------------ */

/* repro.transport.base._PyTransportCore, method for method: the
 * request exchange, the server's send burst, ACK processing, loss
 * detection and probe timeout (PTO), and the client's ACK batching and
 * chunk hand-off.  The arithmetic is the same float expressions in the
 * same order, and the Python hooks (congestion controller, RTT
 * estimator, rate sampler, tracer, metrics sampler) are called in the
 * same order with the same arguments.  Calls between the moved methods
 * stay in C.
 *
 * Two more pieces run here without a Python call: the per-ACK
 * arithmetic of an exact RttEstimator, NewRenoController or
 * CubicController (slotted classes whose fields are read and written
 * in place, with Python's operations and result types), and the
 * receivers' reassembly (TCP in connection-byte order, QUIC per
 * stream), whose state the struct holds.  Any other controller, and a
 * connection class that overrides a reassembly hook, is called.
 *
 * Data, request and ACK packets are native Packets whose fields are
 * read and written in place, and response chunks are StreamChunk
 * tuples.  The PTO and delayed-ACK
 * deadlines are event handles held here: started, stopped and fired
 * as repro.events.Timer does, but with no Timer and no bound method,
 * so a connection whose deadlines are stopped holds no reference
 * cycle through them.  Re-arming a pending deadline on a LoopCore moves
 * its event in the heap instead of cancelling it and scheduling a new
 * one (see heap_rekey).
 *
 * What the loop does per packet is resolved once per connection: the
 * packets in flight are a ring, not a dict (Inflight below); the path's
 * send_to_client/send_to_server callables are cached next to the bound
 * packet receivers (see path_send); and whether a hook is the core's own
 * method is cached by the class's version tag (see own_method). */

/* -- The in-flight ring --------------------------------------------- */

/* A connection's data packets awaiting their ACK, by packet number: the
 * dict {seq: packet} of _PyTransportCore, kept as a growable ring
 * indexed by seq - base.  Packet numbers come from one counter, so a
 * sent packet is appended at the tail; an ACK empties its packet's slot,
 * leaving a hole when packets are acked out of order, and the head moves
 * past holes, so it is always the oldest packet in flight.  The loss
 * scan and the PTO read the head; no packet number is hashed or boxed.
 *
 * From Python the ring reads as that dict: len() and truth are O(1) and
 * allocate nothing, iteration yields the numbers in ascending order, and
 * [], in, pop, keys and items work (the Python core runs on it in the
 * differential tests).  Storing a packet under a number above every
 * number held appends it (any other new number is a ValueError: the
 * ring holds ascending numbers only).  The buffer grows on demand and
 * is freed when the ring is empty at close(). */

typedef struct {
    PyObject_HEAD
    PyObject **slots;   /* cap entries: strong Packets, NULL for holes */
    Py_ssize_t cap;     /* 0, or a power of two */
    Py_ssize_t head;    /* the slot of base */
    Py_ssize_t span;    /* numbers base .. base + span - 1 are covered */
    Py_ssize_t count;   /* packets held; span and head are 0 without */
    long long base;     /* the oldest number held */
} InflightObject;

static PyTypeObject InflightType;
#define INFLIGHT_MIN_CAP 16

/* Whether seq is covered: base <= seq < base + span. */
static inline int
inflight_covers(InflightObject *ring, long long seq)
{
    return ring->count > 0 && seq >= ring->base
        && (unsigned long long)seq - (unsigned long long)ring->base
           < (unsigned long long)ring->span;
}

static inline PyObject **
inflight_slot(InflightObject *ring, long long seq)
{
    Py_ssize_t offset = (Py_ssize_t)((unsigned long long)seq
                                     - (unsigned long long)ring->base);
    return &ring->slots[(ring->head + offset) & (ring->cap - 1)];
}

/* The packet numbered seq (borrowed), or NULL. */
static PyObject *
inflight_get(InflightObject *ring, long long seq)
{
    return inflight_covers(ring, seq) ? *inflight_slot(ring, seq) : NULL;
}

/* Append pkt (borrowed) as number seq, above every number held. */
static int
inflight_append(InflightObject *ring, long long seq, PyObject *pkt)
{
    if (ring->count == 0)
        ring->base = seq;
    else if (seq < ring->base
             || (unsigned long long)seq - (unsigned long long)ring->base
                < (unsigned long long)ring->span) {
        PyErr_Format(PyExc_ValueError,
                     "packet %lld is not above every packet in flight", seq);
        return -1;
    }
    unsigned long long offset = (unsigned long long)seq
                                - (unsigned long long)ring->base;
    if (offset >= (unsigned long long)ring->cap) {
        if (offset >= (unsigned long long)(PY_SSIZE_T_MAX / sizeof(PyObject *) / 2)) {
            PyErr_NoMemory();
            return -1;
        }
        Py_ssize_t cap = ring->cap ? ring->cap : INFLIGHT_MIN_CAP;
        while ((unsigned long long)cap <= offset)
            cap *= 2;
        PyObject **slots = PyMem_Calloc(cap, sizeof(PyObject *));
        if (slots == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        for (Py_ssize_t i = 0; i < ring->span; i++)
            slots[i] = ring->slots[(ring->head + i) & (ring->cap - 1)];
        PyMem_Free(ring->slots);
        ring->slots = slots;
        ring->cap = cap;
        ring->head = 0;
    }
    ring->span = (Py_ssize_t)offset + 1;
    ring->count++;
    *inflight_slot(ring, seq) = Py_NewRef(pkt);
    return 0;
}

/* Take packet seq out (new reference), or NULL when it is not held; no
 * exception either way. */
static PyObject *
inflight_pop(InflightObject *ring, long long seq)
{
    if (!inflight_covers(ring, seq))
        return NULL;
    PyObject **slot = inflight_slot(ring, seq);
    PyObject *pkt = *slot;
    if (pkt == NULL)
        return NULL;
    *slot = NULL;
    if (--ring->count == 0)
        ring->head = ring->span = 0;
    else if (seq == ring->base) {
        do {
            ring->head = (ring->head + 1) & (ring->cap - 1);
            ring->base++;
            ring->span--;
        } while (ring->slots[ring->head] == NULL);
    }
    return pkt;
}

/* Drop every packet, and the buffer with them. */
static void
inflight_clear(InflightObject *ring)
{
    PyObject **slots = ring->slots;
    Py_ssize_t cap = ring->cap;
    ring->slots = NULL;
    ring->cap = ring->head = ring->span = ring->count = 0;
    for (Py_ssize_t i = 0; i < cap; i++)
        Py_XDECREF(slots[i]);
    PyMem_Free(slots);
}

/* A Python key as a packet number: 1 with *seq set, 0 when it cannot
 * be one held (not an int, or out of range), -1 on error. */
static int
inflight_key(PyObject *key, long long *seq)
{
    if (!PyLong_Check(key))
        return 0;
    int overflow;
    *seq = PyLong_AsLongLongAndOverflow(key, &overflow);
    if (*seq == -1 && PyErr_Occurred())
        return -1;
    return !overflow;
}

static int
inflight_traverse(InflightObject *ring, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < ring->span; i++)
        Py_VISIT(ring->slots[(ring->head + i) & (ring->cap - 1)]);
    return 0;
}

static int
inflight_tp_clear(InflightObject *ring)
{
    inflight_clear(ring);
    return 0;
}

static void
inflight_dealloc(InflightObject *ring)
{
    PyObject_GC_UnTrack(ring);
    inflight_clear(ring);
    Py_TYPE(ring)->tp_free((PyObject *)ring);
}

static Py_ssize_t
inflight_length(InflightObject *ring)
{
    return ring->count;
}

/* The packet numbers held, ascending, as a list; with items set, the
 * (number, packet) pairs. */
static PyObject *
inflight_list(InflightObject *ring, int items)
{
    PyObject *out = PyList_New(0);
    if (out == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < ring->span; i++) {
        PyObject *pkt = ring->slots[(ring->head + i) & (ring->cap - 1)];
        if (pkt == NULL)
            continue;
        PyObject *item = PyLong_FromLongLong(ring->base + (long long)i);
        if (items && item != NULL)
            Py_SETREF(item, PyTuple_Pack(2, item, pkt));
        if (item == NULL || PyList_Append(out, item) < 0) {
            Py_XDECREF(item);
            Py_DECREF(out);
            return NULL;
        }
        Py_DECREF(item);
    }
    return out;
}

static PyObject *
inflight_iter(InflightObject *ring)
{
    PyObject *keys = inflight_list(ring, 0);
    if (keys == NULL)
        return NULL;
    PyObject *it = PyObject_GetIter(keys);
    Py_DECREF(keys);
    return it;
}

static PyObject *
inflight_keys(InflightObject *ring, PyObject *Py_UNUSED(ignored))
{
    return inflight_list(ring, 0);
}

static PyObject *
inflight_items(InflightObject *ring, PyObject *Py_UNUSED(ignored))
{
    return inflight_list(ring, 1);
}

/* The packet under key (borrowed), or NULL: with an exception only on
 * error. */
static PyObject *
inflight_lookup(InflightObject *ring, PyObject *key)
{
    long long seq;
    int valid = inflight_key(key, &seq);
    return valid > 0 ? inflight_get(ring, seq) : NULL;
}

static PyObject *
inflight_subscript(InflightObject *ring, PyObject *key)
{
    PyObject *pkt = inflight_lookup(ring, key);
    if (pkt == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetObject(PyExc_KeyError, key);
        return NULL;
    }
    return Py_NewRef(pkt);
}

static int
inflight_contains(InflightObject *ring, PyObject *key)
{
    PyObject *pkt = inflight_lookup(ring, key);
    return pkt != NULL ? 1 : PyErr_Occurred() ? -1 : 0;
}

/* ring.pop(key[, default]): the packet taken out, the default, or
 * KeyError. */
static PyObject *
inflight_pop_method(InflightObject *ring, PyObject *const *args,
                    Py_ssize_t nargs)
{
    if (nargs < 1 || nargs > 2) {
        PyErr_SetString(PyExc_TypeError, "pop(key[, default])");
        return NULL;
    }
    long long seq;
    int valid = inflight_key(args[0], &seq);
    if (valid < 0)
        return NULL;
    PyObject *pkt = valid ? inflight_pop(ring, seq) : NULL;
    if (pkt != NULL)
        return pkt;
    if (nargs == 2)
        return Py_NewRef(args[1]);
    PyErr_SetObject(PyExc_KeyError, args[0]);
    return NULL;
}

/* ring[key] = packet: appended, or replacing the one held. */
static int
inflight_ass_subscript(InflightObject *ring, PyObject *key, PyObject *value)
{
    if (value == NULL) {
        PyErr_SetString(PyExc_TypeError, "take packets out with pop()");
        return -1;
    }
    long long seq;
    int valid = inflight_key(key, &seq);
    if (valid < 0 || require_packet(value) < 0)
        return -1;
    if (!valid) {
        PyErr_Format(PyExc_TypeError, "packet numbers are 64-bit ints, got %R",
                     key);
        return -1;
    }
    PyObject *held = inflight_get(ring, seq);
    if (held != NULL) {
        PyObject **slot = inflight_slot(ring, seq);
        *slot = Py_NewRef(value);
        Py_DECREF(held);
        return 0;
    }
    return inflight_append(ring, seq, value);
}

/* Replace every packet with the items of mapping, in its order. */
static int
inflight_load(InflightObject *ring, PyObject *mapping)
{
    if ((PyObject *)ring == mapping)
        return 0;
    PyObject *items = PyMapping_Items(mapping);
    if (items == NULL)
        return -1;
    inflight_clear(ring);
    int rc = 0;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(items) && rc == 0; i++) {
        PyObject *item = PyList_GET_ITEM(items, i);
        if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 2) {
            PyErr_SetString(PyExc_TypeError, "expected (key, value) items");
            rc = -1;
        }
        else
            rc = inflight_ass_subscript(ring, PyTuple_GET_ITEM(item, 0),
                                        PyTuple_GET_ITEM(item, 1));
    }
    Py_DECREF(items);
    return rc;
}

static PyMappingMethods inflight_as_mapping = {
    .mp_length = (lenfunc)inflight_length,
    .mp_subscript = (binaryfunc)inflight_subscript,
    .mp_ass_subscript = (objobjargproc)inflight_ass_subscript,
};

static PySequenceMethods inflight_as_sequence = {
    .sq_contains = (objobjproc)inflight_contains,
};

static PyMethodDef inflight_methods[] = {
    {"pop", (PyCFunction)(void (*)(void))inflight_pop_method, METH_FASTCALL,
     "Take the packet numbered key out; default or KeyError when absent."},
    {"keys", (PyCFunction)inflight_keys, METH_NOARGS,
     "The packet numbers held, ascending, as a list."},
    {"items", (PyCFunction)inflight_items, METH_NOARGS,
     "(number, packet) pairs, ascending, as a list."},
    {NULL}
};

static PyTypeObject InflightType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.events._ckernel.Inflight",
    .tp_basicsize = sizeof(InflightObject),
    .tp_dealloc = (destructor)inflight_dealloc,
    .tp_as_sequence = &inflight_as_sequence,
    .tp_as_mapping = &inflight_as_mapping,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A connection's data packets in flight, by ascending packet "
              "number (a ring; reads as a dict).",
    .tp_traverse = (traverseproc)inflight_traverse,
    .tp_clear = (inquiry)inflight_tp_clear,
    .tp_iter = (getiterfunc)inflight_iter,
    .tp_methods = inflight_methods,
};

/* Installed by repro.transport.base through _install_transport. */
static PyObject *FastpathModule = NULL;
static PyObject *PyDeliverChunk = NULL; /* _PyTransportCore._deliver_chunk */
static PyObject *TransportError = NULL; /* repro.transport.base's */
/* The deadlines' and the request exchange's event callbacks (module
 * functions, made at init). */
static PyObject *FirePto = NULL, *FireAck = NULL, *FireHandshake = NULL,
    *FireRequestTimeout = NULL, *FireEnqueue = NULL;
/* TransportCore's own method descriptors (borrowed from its type
 * dict): a connection class whose hook resolves to one of them gets
 * the C function called directly. */
static PyObject *DescrDeliver = NULL, *DescrTcpReceive = NULL,
    *DescrTcpRelease = NULL, *DescrQuicReceive = NULL, *DescrQuicChunk = NULL,
    *DescrSendRequest = NULL, *DescrRequestTimeout = NULL,
    *DescrRequestAck = NULL, *DescrAbsorb = NULL, *DescrEnqueue = NULL,
    *DescrCanSend = NULL;

/* A slotted Python class whose fields C reads and writes in place: an
 * instance of exactly that class by slot offset (resolved once from
 * its member descriptors), anything else through getattr/setattr. */
#define MAX_SLOTS 9
typedef struct {
    PyTypeObject *type;
    int count;
    const char *fields[MAX_SLOTS];
    PyObject *names[MAX_SLOTS];
    Py_ssize_t offsets[MAX_SLOTS];
} SlotClass;

/* ConnectionStats: the counters the loop, the reassembly and the
 * request exchange bump. */
enum { ST_SENT, ST_LOST, ST_RETX, ST_ACKS, ST_RTO, ST_HOL_CHUNKS,
       ST_HOL_STALLS, ST_HOL_STALL_MS, ST_REQUEST_RETX };
static SlotClass Stats = {NULL, 9, {
    "data_packets_sent", "data_packets_lost", "retransmissions",
    "acks_received", "rto_events", "hol_blocked_chunks", "hol_stalls",
    "hol_stall_ms", "request_retransmissions"}};

/* RttEstimator. */
enum { RT_MIN_RTO, RT_SRTT, RT_RTTVAR, RT_LATEST, RT_SAMPLES, RT_RTO };
static SlotClass Rtt = {NULL, 6, {
    "_min_rto_ms", "srtt_ms", "rttvar_ms", "latest_sample_ms", "samples",
    "rto_ms"}};

/* NewRenoController, and CubicController with three more fields. */
enum { CC_MSS, CC_CWND, CC_SSTHRESH, CC_MIN_CWND, CC_W_MAX, CC_EPOCH };
static SlotClass NewReno = {NULL, 3, {"mss", "_cwnd", "_ssthresh"}};
static SlotClass Cubic = {NULL, 6, {
    "mss", "_cwnd", "_ssthresh", "_min_cwnd", "_w_max", "_epoch_start_ms"}};

/* _ServerStream: the send-side fields of the round-robin, then the
 * request reassembly's.  Every slot: request() builds them. */
enum { SS_RESPONSE_BYTES, SS_NEXT_OFFSET, SS_WEIGHT, SS_STREAM_ID,
       SS_THINK_MS, SS_REQUEST_RECEIVED, SS_REQUEST_TOTAL,
       SS_REQUEST_OFFSETS, SS_RESPONSE_QUEUED };
static SlotClass ServerStream = {NULL, 9, {
    "response_bytes", "next_offset", "weight", "stream_id", "think_ms",
    "request_received", "request_total", "request_offsets",
    "response_queued"}};

/* ClientStream: the fields chunk hand-off updates, then the request
 * size.  Every slot: request() builds them. */
enum { CS_T_FIRST_BYTE, CS_ON_FIRST_BYTE, CS_RECEIVED, CS_RESPONSE_BYTES,
       CS_T_COMPLETE, CS_ON_COMPLETE, CS_STREAM_ID, CS_OPENED_AT,
       CS_REQUEST_BYTES };
static SlotClass ClientStream = {NULL, 9, {
    "t_first_byte", "on_first_byte", "received", "response_bytes",
    "t_complete", "on_complete", "stream_id", "opened_at", "request_bytes"}};

/* _PendingRequestPacket: a request packet awaiting its ACK. */
enum { PR_PACKET, PR_TIMEOUT, PR_TRIES };
static SlotClass PendingRequest = {NULL, 3, {"packet", "timeout", "tries"}};

static PyObject *str_cancel, *str_popleft, *str_append,
    *str_rotate, *str_remove, *str_get, *str_advance,
    *str_send_to_client, *str_send_to_server, *str_client_on_packet,
    *str_server_on_packet, *str_on_data_packet_received,
    *str_absorb_request_chunk, *str_on_request_ack, *str_trace_metrics,
    *str_on_ack, *str_on_loss, *str_on_rto, *str_on_sample, *str_cwnd_bytes,
    *str_packet_sent, *str_packet_received,
    *str_packet_acked, *str_packet_lost, *str_event, *str_s2c,
    *str_packet_threshold, *str_pto, *str_pto_fired, *str_stream_closed,
    *str_stream_id, *str_offset, *str_pop, *str_setdefault, *str_deliver_chunk,
    *str_release_packet, *str_receive_stream_chunk,
    *str_on_handshake_timeout, *str_hol_started, *str_hol_ended,
    *str_alpha, *str_beta, *str_c,
    *str_mss, *str_ack_frequency, *str_max_ack_delay_ms,
    *str_send_request_packet, *str_on_request_timeout,
    *str_enqueue_response, *str_can_send_requests, *str_closed,
    *str_established, *str_zero_rtt, *str_stream_opened, *str_c2s,
    *str_add, *str_end, *str_request_complete, *str_max_request_retries,
    *str_name, *str_protocol_name, *str_on_error, *str_close, *str_fin;
/* ("force",), ("backoff",), ("stream_id", "first_byte_ms", "duration_ms"),
 * the HoL-stall events' keywords, without and with a stream id, and
 * ("stream_id", "request_bytes", "response_bytes"). */
static PyObject *kw_force, *kw_backoff, *kw_stream_closed, *kw_blocked_from,
    *kw_duration, *kw_stream_blocked_from, *kw_stream_duration,
    *kw_stream_opened;

#define SLOT(obj, offset) (*(PyObject **)((char *)(obj) + (offset)))

typedef struct {
    PyObject_HEAD
    /* Collaborators, as BaseConnection assigns them. */
    PyObject *loop, *path, *config, *cc, *rtt, *stats, *tracer, *check,
        *sampler, *rate_sampler, *streams, *fast_path_enabled;
    /* The data packets in flight (see Inflight; never replaced, only
     * reloaded), then the containers the rest of the code sees. */
    InflightObject *inflight;
    PyObject *send_queue, *retx_queue, *server_streams, *ack_pending,
        *next_pkt_seq;
    /* Hot state.  What the analytic fast path (Python) also updates
     * per packet is held as objects, which the interpreter's attribute
     * specialization reads and writes as directly as C does; the rest
     * is held as C numbers. */
    PyObject *largest_sent, *conn_send_offset, *delivered_bytes,
        *first_data_sent_at;
    long long largest_acked, bytes_in_flight, recovery_until_seq,
        pto_backoff, ack_largest_received;
    double ack_last_recv_at;
    /* The config fields the loop reads, cached per config object
     * (TransportConfig is frozen); see tc_config. */
    PyObject *cached_config;
    long long mss, packet_threshold, ack_frequency;
    double max_ack_delay_ms;
    /* Receiver reassembly: TCP's next in-order byte, reorder buffer and
     * stall start; QUIC's per-stream next offsets, buffers and stall
     * starts (each protocol sets its own). */
    PyObject *rcv_next, *reorder_buffer, *stall_started_at,
        *stream_rcv_next, *stream_buffers, *stream_stall_started;
    /* The pending PTO / delayed-ACK / handshake events, or NULL when
     * disarmed. */
    PyObject *pto_event, *ack_event, *hs_event;
    /* The request exchange: stream and request-packet numbering, the
     * request packets awaiting their ACK, the default think time. */
    PyObject *next_stream_id, *req_seq, *pending_requests, *server_think_ms;
    /* What path_send calls: the bound packet receivers it hands the
     * path (each refers back to self) and send_path's send_to_client /
     * send_to_server, all resolved on first use; the send callables are
     * resolved again once path is another object than send_path.
     * close() drops all five and sets closed, after which they are
     * resolved per packet. */
    PyObject *client_receiver, *server_receiver, *send_path, *send_client,
        *send_server;
    char closed;
    /* own_method's answers, a bit per Hook, valid while the class's
     * version tag is own_type_tag (and, where dicts carry a version,
     * the instance dict's is own_dict_version). */
    unsigned int own_type_tag, own_bits;
    uint64_t own_dict_version;
} TransportCoreObject;

static PyTypeObject TransportCoreType;

static int
tc_require(PyObject *value, const char *name)
{
    if (value != NULL)
        return 0;
    PyErr_Format(PyExc_AttributeError,
                 "connection has no attribute '%s'", name);
    return -1;
}

/* A member as a new reference, held across calls into Python (as a
 * Python local would be); AttributeError when unset. */
static PyObject *
tc_get(PyObject *value, const char *name)
{
    if (tc_require(value, name) < 0)
        return NULL;
    Py_INCREF(value);
    return value;
}

/* self._inflight (borrowed); NULL only once the collector cleared it. */
static InflightObject *
tc_inflight(TransportCoreObject *self)
{
    if (tc_require((PyObject *)self->inflight, "_inflight") < 0)
        return NULL;
    return self->inflight;
}

/* self._ack_pending (borrowed), which the list API appends to. */
static PyObject *
ack_pending_list(TransportCoreObject *self)
{
    PyObject *pending = self->ack_pending;
    if (tc_require(pending, "_ack_pending") < 0)
        return NULL;
    if (PyList_Check(pending))
        return pending;
    PyErr_SetString(PyExc_TypeError, "_ack_pending must be a list");
    return NULL;
}

/* getattr(obj, name) as a long long. */
static int
attr_ll(PyObject *obj, PyObject *name, long long *out)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    int rc = as_ll(value, out);
    Py_DECREF(value);
    return rc;
}

/* The loop's clock: read in C on the kernel's own loop. */
static int
tc_now(TransportCoreObject *self, double *now)
{
    PyObject *loop = self->loop;
    if (tc_require(loop, "loop") < 0)
        return -1;
    if (PyObject_TypeCheck(loop, &LoopCoreType)) {
        *now = ((LoopCoreObject *)loop)->now;
        return 0;
    }
    PyObject *value = PyObject_GetAttr(loop, str_now);
    if (value == NULL)
        return -1;
    int rc = as_double(value, now);
    Py_DECREF(value);
    return rc;
}

/* Load self.config's mss, packet_threshold, ack_frequency and
 * max_ack_delay_ms into the struct, unless they are the cached
 * config's already.  The cache holds its config, so the identity test
 * cannot be fooled by a new object at a freed one's address. */
static int
tc_config(TransportCoreObject *self)
{
    PyObject *config = self->config;
    if (tc_require(config, "config") < 0)
        return -1;
    if (config == self->cached_config)
        return 0;
    long long mss, threshold, frequency;
    double max_ack_delay;
    PyObject *delay = NULL;
    if (attr_ll(config, str_mss, &mss) < 0
        || attr_ll(config, str_packet_threshold, &threshold) < 0
        || attr_ll(config, str_ack_frequency, &frequency) < 0
        || (delay = PyObject_GetAttr(config, str_max_ack_delay_ms)) == NULL
        || as_double(delay, &max_ack_delay) < 0) {
        Py_XDECREF(delay);
        return -1;
    }
    Py_DECREF(delay);
    self->mss = mss;
    self->packet_threshold = threshold;
    self->ack_frequency = frequency;
    self->max_ack_delay_ms = max_ack_delay;
    Py_INCREF(config);
    Py_XSETREF(self->cached_config, config);
    return 0;
}

/* 0 for a result (dropped), -1 for NULL (an exception). */
static int
result_status(PyObject *res)
{
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* A method call whose result is dropped; -1 on exception. */
static int
call_method(PyObject *name, PyObject *const *args, size_t nargs,
            PyObject *kwnames)
{
    PyObject *res = PyObject_VectorcallMethod(name, args, nargs, kwnames);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    return 0;
}

/* obj.name(arg); a stolen arg may be NULL (an error passed through). */
static int
call_method1(PyObject *obj, PyObject *name, PyObject *arg, int steal)
{
    if (arg == NULL)
        return -1;
    PyObject *args[2] = {obj, arg};
    int rc = call_method(name, args, 2, NULL);
    if (steal)
        Py_DECREF(arg);
    return rc;
}

/* dict.pop(key[, default]) (new reference); KeyError without default. */
static PyObject *
dict_pop(PyObject *dict, PyObject *key, PyObject *deflt)
{
#if PY_VERSION_HEX >= 0x030D0000
    PyObject *value;
    int found = PyDict_Pop(dict, key, &value);
    if (found < 0)
        return NULL;
    if (found)
        return value;
    if (deflt == NULL) {
        PyErr_SetObject(PyExc_KeyError, key);
        return NULL;
    }
    Py_INCREF(deflt);
    return deflt;
#else
    return _PyDict_Pop(dict, key, deflt);
#endif
}

/* -- Slotted classes ------------------------------------------------ */

/* obj.<field> (new reference). */
static PyObject *
slot_get(SlotClass *cls, PyObject *obj, int field)
{
    if (Py_IS_TYPE(obj, cls->type)) {
        PyObject *value = SLOT(obj, cls->offsets[field]);
        if (value == NULL) {
            PyErr_Format(PyExc_AttributeError,
                         "'%.100s' object has no attribute '%U'",
                         cls->type->tp_name, cls->names[field]);
            return NULL;
        }
        Py_INCREF(value);
        return value;
    }
    return PyObject_GetAttr(obj, cls->names[field]);
}

static int
slot_get_ll(SlotClass *cls, PyObject *obj, int field, long long *out)
{
    PyObject *value = slot_get(cls, obj, field);
    if (value == NULL)
        return -1;
    int rc = as_ll(value, out);
    Py_DECREF(value);
    return rc;
}

/* obj.<field> = value (value borrowed). */
static int
slot_set(SlotClass *cls, PyObject *obj, int field, PyObject *value)
{
    if (Py_IS_TYPE(obj, cls->type)) {
        Py_INCREF(value);
        Py_XSETREF(SLOT(obj, cls->offsets[field]), value);
        return 0;
    }
    return PyObject_SetAttr(obj, cls->names[field], value);
}

/* obj.<field> = value (value stolen; NULL passes an error through). */
static int
slot_set_new(SlotClass *cls, PyObject *obj, int field, PyObject *value)
{
    if (value == NULL)
        return -1;
    int rc = slot_set(cls, obj, field, value);
    Py_DECREF(value);
    return rc;
}

/* cls's slot offsets, from its member descriptors. */
static int
resolve_slots(SlotClass *cls, PyObject *type)
{
    if (!PyType_Check(type)) {
        PyErr_SetString(PyExc_TypeError, "expected a class");
        return -1;
    }
    for (int i = 0; i < cls->count; i++) {
        if (cls->names[i] == NULL) {
            cls->names[i] = PyUnicode_InternFromString(cls->fields[i]);
            if (cls->names[i] == NULL)
                return -1;
        }
        PyObject *descr = PyDict_GetItemWithError(
            ((PyTypeObject *)type)->tp_dict, cls->names[i]);
        if (descr == NULL || !Py_IS_TYPE(descr, &PyMemberDescr_Type)
            || ((PyMemberDescrObject *)descr)->d_member->type != T_OBJECT_EX) {
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_TypeError, "%s.%s is not a slot",
                             ((PyTypeObject *)type)->tp_name, cls->fields[i]);
            return -1;
        }
        cls->offsets[i] = ((PyMemberDescrObject *)descr)->d_member->offset;
    }
    Py_INCREF(type);
    Py_XSETREF(cls->type, (PyTypeObject *)type);
    return 0;
}

/* resolve_slots for a class slotted_new builds: one whose __slots__
 * are exactly cls's fields, so no slot is left unset. */
static int
resolve_all_slots(SlotClass *cls, PyObject *type)
{
    PyObject *slots = PyObject_GetAttrString(type, "__slots__");
    if (slots == NULL)
        return -1;
    Py_ssize_t n_slots = PyObject_Length(slots);
    Py_DECREF(slots);
    if (n_slots < 0)
        return -1;
    if (n_slots != cls->count) {
        PyErr_Format(PyExc_TypeError, "%s has %zd slots, expected %d",
                     ((PyTypeObject *)type)->tp_name, n_slots, cls->count);
        return -1;
    }
    return resolve_slots(cls, type);
}

/* An instance of exactly cls, every slot filled from values (borrowed),
 * as the class's __init__ fills them: cls has no other slots (checked
 * by _install_transport) and no __init__ side effects. */
static PyObject *
slotted_new(SlotClass *cls, PyObject *const *values)
{
    PyObject *obj = cls->type->tp_alloc(cls->type, 0);
    if (obj == NULL)
        return NULL;
    for (int i = 0; i < cls->count; i++) {
        Py_INCREF(values[i]);
        SLOT(obj, cls->offsets[i]) = values[i];
    }
    return obj;
}

/* -- StreamChunk and packet fields ----------------------------------- */

/* The StreamChunk tuple of four items (borrowed), past __new__'s checks. */
static PyObject *
chunk_pack(PyObject *stream_id, PyObject *offset, PyObject *size, PyObject *fin)
{
    PyObject *chunk = ChunkType->tp_alloc(ChunkType, 4);
    if (chunk == NULL)
        return NULL;
    PyObject *items[4] = {stream_id, offset, size, fin};
    for (int i = 0; i < 4; i++)
        PyTuple_SET_ITEM(chunk, i, Py_NewRef(items[i]));
    return chunk;
}

/* StreamChunk(stream_id, offset, size, fin), with __new__'s checks. */
static PyObject *
chunk_new(PyObject *stream_id, long long offset, long long size, int fin)
{
    if (size <= 0) {
        PyErr_Format(PyExc_ValueError,
                     "chunk size must be positive, got %lld", size);
        return NULL;
    }
    if (offset < 0) {
        PyErr_Format(PyExc_ValueError,
                     "chunk offset must be >= 0, got %lld", offset);
        return NULL;
    }
    PyObject *offset_obj = PyLong_FromLongLong(offset);
    PyObject *size_obj = PyLong_FromLongLong(size);
    PyObject *chunk = NULL;
    if (offset_obj != NULL && size_obj != NULL)
        chunk = chunk_pack(stream_id, offset_obj, size_obj,
                           fin ? Py_True : Py_False);
    Py_XDECREF(offset_obj);
    Py_XDECREF(size_obj);
    return chunk;
}

/* The same for any number objects (a request's chunks), compared as
 * __new__ compares them. */
static PyObject *
chunk_from(PyObject *stream_id, PyObject *offset, PyObject *size,
           PyObject *fin)
{
    int bad = PyObject_RichCompareBool(size, int_zero, Py_LE);
    if (bad != 0) {
        if (bad > 0)
            PyErr_Format(PyExc_ValueError,
                         "chunk size must be positive, got %S", size);
        return NULL;
    }
    bad = PyObject_RichCompareBool(offset, int_zero, Py_LT);
    if (bad != 0) {
        if (bad > 0)
            PyErr_Format(PyExc_ValueError,
                         "chunk offset must be >= 0, got %S", offset);
        return NULL;
    }
    return chunk_pack(stream_id, offset, size, fin);
}

/* (sent.chunks[0], sent.conn_start): a lost packet's retransmission
 * queue entry. */
static PyObject *
retx_entry(PyObject *sent)
{
    if (require_packet(sent) < 0
        || pkt_object(PKT(sent)->chunks, "chunks") == NULL)
        return NULL;
    PyObject *chunk = PySequence_GetItem(PKT(sent)->chunks, 0);
    PyObject *conn_start = chunk == NULL ? NULL
        : PyLong_FromLongLong(PKT(sent)->conn_start);
    PyObject *entry = conn_start == NULL ? NULL
        : PyTuple_Pack(2, chunk, conn_start);
    Py_XDECREF(chunk);
    Py_XDECREF(conn_start);
    return entry;
}

/* PySequence_Fast(pkt.chunks) (new reference), pkt a Packet. */
static PyObject *
packet_chunks(PyObject *pkt)
{
    if (require_packet(pkt) < 0 || pkt_object(PKT(pkt)->chunks, "chunks") == NULL)
        return NULL;
    return PySequence_Fast(PKT(pkt)->chunks, "chunks must be iterable");
}

/* obj + delta (new reference), as Python adds an int to obj: in C on
 * an exact int, through the number protocol otherwise. */
static PyObject *
add_ll(PyObject *obj, long long delta)
{
    if (PyLong_CheckExact(obj)) {
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(obj, &overflow), sum;
        if (v == -1 && PyErr_Occurred())
            return NULL;
        if (!overflow && !__builtin_add_overflow(v, delta, &sum))
            return PyLong_FromLongLong(sum);
    }
    PyObject *d = PyLong_FromLongLong(delta);
    PyObject *total = d == NULL ? NULL : PyNumber_InPlaceAdd(obj, d);
    Py_XDECREF(d);
    return total;
}

/* stats.<counter> += delta. */
static int
stats_add(PyObject *stats, int field, Py_ssize_t delta)
{
    if (tc_require(stats, "stats") < 0)
        return -1;
    PyObject *old = slot_get(&Stats, stats, field);
    if (old == NULL)
        return -1;
    PyObject *d = PyLong_FromSsize_t(delta);
    PyObject *value = d == NULL ? NULL : PyNumber_InPlaceAdd(old, d);
    Py_DECREF(old);
    Py_XDECREF(d);
    return slot_set_new(&Stats, stats, field, value);
}

/* stats.<counter> += delta, for any number delta (borrowed). */
static int
stats_add_obj(PyObject *stats, int field, PyObject *delta)
{
    if (tc_require(stats, "stats") < 0)
        return -1;
    PyObject *old = slot_get(&Stats, stats, field);
    if (old == NULL)
        return -1;
    PyObject *value = PyNumber_InPlaceAdd(old, delta);
    Py_DECREF(old);
    return slot_set_new(&Stats, stats, field, value);
}

/* -- Congestion control and RTT in place ------------------------------ */

/* The fields of an exact RttEstimator, NewRenoController or
 * CubicController are plain numbers: floats, and ints that a double
 * holds exactly.  On those, Python's mixed int/float arithmetic and
 * comparisons are the double ones, so C computes them in doubles (ints
 * stay ints where Python keeps them ints).  Anything else, an unset
 * field, or an operation that would raise in Python, and the Python
 * method is called instead; nothing has been written by then. */
typedef struct { double d; long long i; int is_int; } Num;

#define EXACT_INT_LIMIT (1LL << 53)

/* 0 when obj is a plain number (filled into *out), 1 otherwise. */
static int
plain_number(PyObject *obj, Num *out)
{
    if (obj == NULL)
        return 1;
    if (PyFloat_CheckExact(obj)) {
        out->d = PyFloat_AS_DOUBLE(obj);
        out->is_int = 0;
        return 0;
    }
    if (PyLong_CheckExact(obj)) {
        int overflow;
        long long v = PyLong_AsLongLongAndOverflow(obj, &overflow);
        if (overflow || v > EXACT_INT_LIMIT || v < -EXACT_INT_LIMIT)
            return 1;
        out->i = v;
        out->d = (double)v;
        out->is_int = 1;
        return 0;
    }
    return 1;
}

/* A float class constant, as `self.NAME` finds it on a slotted
 * instance: 0 with *out set, 1 when it is not an exact float. */
static int
class_float(PyObject *obj, PyObject *name, double *out)
{
    PyObject *value = _PyType_Lookup(Py_TYPE(obj), name);
    if (value == NULL || !PyFloat_CheckExact(value))
        return 1;
    *out = PyFloat_AS_DOUBLE(value);
    return 0;
}

/* iv ** iw on floats as float.__pow__ computes it (its special cases
 * first, then the C library's pow()): 0 with *out set, 1 for the cases
 * left to Python (zero, infinite or NaN operands, a complex result, a
 * range error). */
static int
float_pow(double iv, double iw, double *out)
{
    if (!isfinite(iv) || !isfinite(iw) || iv == 0.0 || iw == 0.0)
        return 1;
    int negate = 0;
    if (iv < 0.0) {
        if (iw != floor(iw))
            return 1;
        iv = -iv;
        negate = fmod(fabs(iw), 2.0) == 1.0;
    }
    if (iv == 1.0) {
        *out = negate ? -1.0 : 1.0;
        return 0;
    }
    errno = 0;
    double ix = pow(iv, iw);
    if (errno != 0 || isinf(ix))
        return 1;
    *out = negate ? -ix : ix;
    return 0;
}

/* A number object that is a's value when `max(a, b)` returns a: b if
 * b > a else a (Python's max returns the first of two equal ones).  a
 * is borrowed, the result new. */
static PyObject *
py_max(PyObject *a, double a_v, double b_v)
{
    if (b_v > a_v)
        return PyFloat_FromDouble(b_v);
    Py_INCREF(a);
    return a;
}

/* rtt.on_sample(sample) for an exact RttEstimator, in place: 1 when
 * done, 0 when the caller must call the method, -1 on error.  The
 * caller passes only samples >= 0 (the method raises on the rest). */
static int
rtt_sample_native(PyObject *rtt, PyObject *sample_obj)
{
    if (!Py_IS_TYPE(rtt, Rtt.type) || !PyFloat_CheckExact(sample_obj))
        return 0;
    double sample = PyFloat_AS_DOUBLE(sample_obj);
    PyObject *min_rto = SLOT(rtt, Rtt.offsets[RT_MIN_RTO]);
    PyObject *srtt = SLOT(rtt, Rtt.offsets[RT_SRTT]);
    PyObject *rttvar = SLOT(rtt, Rtt.offsets[RT_RTTVAR]);
    PyObject *samples = SLOT(rtt, Rtt.offsets[RT_SAMPLES]);
    Num min_v, srtt_v, rttvar_v;
    double alpha, beta;
    if (!(sample >= 0) || samples == NULL || !PyLong_CheckExact(samples)
        || plain_number(min_rto, &min_v) || srtt == NULL
        || class_float(rtt, str_alpha, &alpha)
        || class_float(rtt, str_beta, &beta))
        return 0;
    double new_srtt, new_rttvar;
    if (srtt == Py_None) {
        new_srtt = sample;
        new_rttvar = sample / 2.0;
    }
    else {
        if (plain_number(srtt, &srtt_v) || plain_number(rttvar, &rttvar_v))
            return 0;
        new_rttvar = (1 - beta) * rttvar_v.d + beta * fabs(srtt_v.d - sample);
        new_srtt = (1 - alpha) * srtt_v.d + alpha * sample;
    }
    PyObject *count = PyNumber_Add(samples, int_one);
    PyObject *srtt_obj = srtt == Py_None ? Py_NewRef(sample_obj)
                                         : PyFloat_FromDouble(new_srtt);
    PyObject *rttvar_obj = PyFloat_FromDouble(new_rttvar);
    PyObject *rto = py_max(min_rto, min_v.d, new_srtt + 4.0 * new_rttvar);
    if (count == NULL || srtt_obj == NULL || rttvar_obj == NULL || rto == NULL) {
        Py_XDECREF(count);
        Py_XDECREF(srtt_obj);
        Py_XDECREF(rttvar_obj);
        Py_XDECREF(rto);
        return -1;
    }
    Py_INCREF(sample_obj);
    Py_XSETREF(SLOT(rtt, Rtt.offsets[RT_LATEST]), sample_obj);
    Py_SETREF(SLOT(rtt, Rtt.offsets[RT_SAMPLES]), count);
    Py_SETREF(SLOT(rtt, Rtt.offsets[RT_SRTT]), srtt_obj);
    Py_XSETREF(SLOT(rtt, Rtt.offsets[RT_RTTVAR]), rttvar_obj);
    Py_XSETREF(SLOT(rtt, Rtt.offsets[RT_RTO]), rto);
    return 1;
}

/* The slot layout of cc when it is an exact NewReno or CUBIC
 * controller, else NULL. */
static SlotClass *
native_cc(PyObject *cc)
{
    if (Py_IS_TYPE(cc, NewReno.type))
        return &NewReno;
    if (Py_IS_TYPE(cc, Cubic.type))
        return &Cubic;
    return NULL;
}

#define CC_FIELD(cls, cc, field) SLOT(cc, (cls)->offsets[field])

/* The congestion-avoidance step both share, `cwnd + mss * acked /
 * cwnd`: 0 with *out set, 1 when Python must do it. */
static int
reno_increase(Num cwnd, Num mss, Num acked, double *out)
{
    double product;
    if (mss.is_int && acked.is_int) {
        /* int * int stays an exact int; int / x is a double division
         * when the int is exactly a double. */
        long long p;
        if (__builtin_mul_overflow(mss.i, acked.i, &p)
            || p > EXACT_INT_LIMIT || p < -EXACT_INT_LIMIT)
            return 1;
        product = (double)p;
    }
    else {
        product = mss.d * acked.d;
    }
    if (cwnd.d == 0.0)
        return 1;
    *out = cwnd.d + product / cwnd.d;
    return 0;
}

/* cc.on_ack(acked, now) for an exact NewRenoController or
 * CubicController, in place: 1 when done, 0 when the caller must call
 * the method, -1 on error. */
static int
cc_ack_native(PyObject *cc, long long acked_bytes, double now)
{
    SlotClass *cls = native_cc(cc);
    if (cls == NULL || acked_bytes > EXACT_INT_LIMIT
        || acked_bytes < -EXACT_INT_LIMIT)
        return 0;
    PyObject *cwnd_obj = CC_FIELD(cls, cc, CC_CWND);
    Num cwnd, ssthresh, mss, acked = {(double)acked_bytes, acked_bytes, 1};
    if (plain_number(cwnd_obj, &cwnd)
        || plain_number(CC_FIELD(cls, cc, CC_SSTHRESH), &ssthresh)
        || plain_number(CC_FIELD(cls, cc, CC_MSS), &mss))
        return 0;
    PyObject *value;
    double v;
    if (cwnd.d < ssthresh.d) {
        /* in_slow_start: cwnd += acked (int + int stays an int). */
        if (cwnd.is_int && acked.is_int)
            value = PyLong_FromLongLong(cwnd.i + acked.i);
        else
            value = PyFloat_FromDouble(cwnd.d + acked.d);
    }
    else if (cls == &NewReno || CC_FIELD(cls, cc, CC_W_MAX) == Py_None) {
        /* Congestion avoidance (CUBIC before any loss emulates Reno). */
        if (reno_increase(cwnd, mss, acked, &v))
            return 0;
        value = PyFloat_FromDouble(v);
    }
    else {
        /* max(cwnd, _cubic_window(now)). */
        Num w_max, epoch, min_cwnd;
        double c, beta, k, cubed;
        PyObject *min_obj = CC_FIELD(cls, cc, CC_MIN_CWND);
        if (plain_number(CC_FIELD(cls, cc, CC_W_MAX), &w_max)
            || plain_number(CC_FIELD(cls, cc, CC_EPOCH), &epoch)
            || plain_number(min_obj, &min_cwnd)
            || class_float(cc, str_c, &c) || class_float(cc, str_beta, &beta)
            || mss.d == 0.0 || c == 0.0)
            return 0;
        double w_max_seg = w_max.d / mss.d;
        if (float_pow(w_max_seg * (1 - beta) / c, 1.0 / 3.0, &k))
            return 0;
        double t = (now - epoch.d) / 1000.0;
        if (float_pow(t - k, 3.0, &cubed))
            return 0;
        double target_seg = c * cubed + w_max_seg;
        double target = target_seg * mss.d;
        double window = target > min_cwnd.d ? target : min_cwnd.d;
        if (!(window > cwnd.d))
            return 1;  /* max() keeps cwnd */
        value = target > min_cwnd.d ? PyFloat_FromDouble(target)
                                    : Py_NewRef(min_obj);
    }
    if (value == NULL)
        return -1;
    Py_XSETREF(CC_FIELD(cls, cc, CC_CWND), value);
    return 1;
}

/* cc.on_ack(acked, now). */
static int
cc_on_ack(PyObject *cc, long long acked, double now, PyObject *now_obj)
{
    int done = cc_ack_native(cc, acked, now);
    if (done != 0)
        return done < 0 ? -1 : 0;
    PyObject *acked_obj = PyLong_FromLongLong(acked);
    if (acked_obj == NULL)
        return -1;
    PyObject *args[3] = {cc, acked_obj, now_obj};
    int rc = call_method(str_on_ack, args, 3, NULL);
    Py_DECREF(acked_obj);
    return rc;
}

/* cc.cwnd_bytes as a double: int(cc._cwnd) read in place for an exact
 * NewReno or CUBIC controller, the property otherwise. */
static int
cc_cwnd(PyObject *cc, double *out)
{
    SlotClass *cls = native_cc(cc);
    Num cwnd;
    if (cls != NULL && plain_number(CC_FIELD(cls, cc, CC_CWND), &cwnd) == 0
        && isfinite(cwnd.d)) {
        *out = cwnd.is_int ? cwnd.d : trunc(cwnd.d);
        return 0;
    }
    PyObject *value = PyObject_GetAttr(cc, str_cwnd_bytes);
    if (value == NULL)
        return -1;
    int rc = as_double(value, out);
    Py_DECREF(value);
    return rc;
}

/* -- Deadlines -------------------------------------------------------- */

/* event.cancel(). */
static int
cancel_event(PyObject *event)
{
    if (Py_IS_TYPE(event, &CEventType)) {
        Py_DECREF(cevent_cancel((CEventObject *)event, NULL));
        return 0;
    }
    PyObject *res = PyObject_CallMethodNoArgs(event, str_cancel);
    Py_XDECREF(res);
    return res == NULL ? -1 : 0;
}

/* Timer.stop: cancel the pending event, if any, and drop the handle. */
static int
deadline_stop(PyObject **slot)
{
    PyObject *event = *slot;
    if (event == NULL)
        return 0;
    *slot = NULL;
    int rc = cancel_event(event);
    Py_DECREF(event);
    return rc;
}

/* loop.call_later(delay, fire, self[, arg]) (new reference to the
 * event): through the kernel's schedule() (call_later's seq and
 * negative-delay rule) on a LoopCore, through the method otherwise.
 * arg may be NULL. */
static PyObject *
loop_call_later(TransportCoreObject *self, double delay, PyObject *fire,
                PyObject *arg)
{
    PyObject *loop = self->loop;
    if (tc_require(loop, "loop") < 0)
        return NULL;
    PyObject *extra[2] = {(PyObject *)self, arg};
    Py_ssize_t n_extra = arg == NULL ? 1 : 2;
    if (PyObject_TypeCheck(loop, &LoopCoreType)) {
        LoopCoreObject *core = (LoopCoreObject *)loop;
        if (delay < 0) {
            PyObject *delay_obj = PyFloat_FromDouble(delay);
            if (delay_obj != NULL)
                PyErr_Format(SimulationError,
                             "cannot schedule %Rms in the past", delay_obj);
            Py_XDECREF(delay_obj);
            return NULL;
        }
        return schedule(core, core->now + delay, fire, extra, n_extra);
    }
    PyObject *delay_obj = PyFloat_FromDouble(delay);
    if (delay_obj == NULL)
        return NULL;
    PyObject *args[5] = {loop, delay_obj, fire, extra[0], extra[1]};
    PyObject *event = PyObject_VectorcallMethod(str_call_later, args,
                                                3 + n_extra, NULL);
    Py_DECREF(delay_obj);
    return event;
}

/* Timer.start: cancel the pending event, then schedule fire(self) at
 * now + delay.  A fire(self) event still pending on the connection's
 * own LoopCore is re-keyed in place instead (heap_rekey): it gets the
 * (time, seq) the new event would have had, so the pop order and the
 * loop's counts are the same, with no event freed and none built. */
static int
deadline_start(TransportCoreObject *self, PyObject **slot, double delay,
               PyObject *fire)
{
    CEventObject *ev = (CEventObject *)*slot;
    if (ev != NULL && Py_IS_TYPE(ev, &CEventType) && ev->loop != NULL
        && (PyObject *)ev->loop == self->loop && ev->callback == fire
        && ev->nargs == 1 && ev->argv[0] == (PyObject *)self && delay >= 0) {
        heap_rekey(ev->loop, ev, ev->loop->now + delay);
        return 0;
    }
    if (deadline_stop(slot) < 0)
        return -1;
    PyObject *event = loop_call_later(self, delay, fire, NULL);
    if (event == NULL)
        return -1;
    Py_XSETREF(*slot, event);
    return 0;
}

/* -- The loop ----------------------------------------------------------- */

static int tc_try_send(TransportCoreObject *self);
static PyObject *tc_flush_acks(TransportCoreObject *self, PyObject *unused);
static int data_packet_received(TransportCoreObject *self, PyObject *pkt);
/* self._server_absorb_request_chunk(chunk), self._client_on_request_ack(pkt). */
static int absorb_request_chunk(TransportCoreObject *self, PyObject *chunk);
static int request_ack(TransportCoreObject *self, PyObject *pkt);

/* The tracer/sampler/check guard: `if self.<hook>:`. */
static int
hook_on(PyObject *hook, const char *name)
{
    if (tc_require(hook, name) < 0)
        return -1;
    return PyObject_IsTrue(hook);
}

/* self._trace_metrics() / self._trace_metrics(force=True). */
static int
trace_metrics(TransportCoreObject *self, int force)
{
    PyObject *args[2] = {(PyObject *)self, Py_True};
    if (force)
        return call_method(str_trace_metrics, args, 1, kw_force);
    return call_method(str_trace_metrics, args, 1, NULL);
}

/* path.send_to_client(pkt, self._client_on_packet_from_server) and
 * the uplink twin.  The callables are looked up once and cached: the
 * receivers on self (so a subclass override receives the packet, as in
 * Python), the send callables on the path.  The contract: the path's
 * send_to_client/send_to_server as they are at the connection's first
 * send are what it sends through, until path is assigned another object
 * (a migration to a new path) or the connection is closed; after
 * close() every callable is looked up per packet. */
static int
path_send(TransportCoreObject *self, int to_client, PyObject *pkt)
{
    PyObject *path = self->path;
    if (tc_require(path, "path") < 0)
        return -1;
    if (path != self->send_path) {
        Py_CLEAR(self->send_client);
        Py_CLEAR(self->send_server);
        Py_CLEAR(self->send_path);
    }
    PyObject **receiver_slot = to_client ? &self->client_receiver
                                         : &self->server_receiver;
    PyObject **send_slot = to_client ? &self->send_client : &self->send_server;
    PyObject *send = *send_slot, *receiver = *receiver_slot;
    if (send != NULL && receiver != NULL) {
        Py_INCREF(send);
        Py_INCREF(receiver);
    }
    else {
        send = PyObject_GetAttr(
            path, to_client ? str_send_to_client : str_send_to_server);
        receiver = send == NULL ? NULL : PyObject_GetAttr(
            (PyObject *)self,
            to_client ? str_client_on_packet : str_server_on_packet);
        if (receiver == NULL) {
            Py_XDECREF(send);
            return -1;
        }
        if (!self->closed) {
            Py_XSETREF(self->send_path, Py_NewRef(path));
            Py_XSETREF(*send_slot, Py_NewRef(send));
            Py_XSETREF(*receiver_slot, Py_NewRef(receiver));
        }
    }
    /* The slot before the arguments is free for a bound method's self. */
    PyObject *args[3] = {NULL, pkt, receiver};
    PyObject *res = PyObject_Vectorcall(
        send, args + 1, 2 | PY_VECTORCALL_ARGUMENTS_OFFSET, NULL);
    Py_DECREF(send);
    Py_DECREF(receiver);
    return result_status(res);
}

static int
tc_arm_pto(TransportCoreObject *self)
{
    if (tc_require(self->rtt, "rtt") < 0 || tc_config(self) < 0)
        return -1;
    PyObject *rto_obj = slot_get(&Rtt, self->rtt, RT_RTO);
    if (rto_obj == NULL)
        return -1;
    double rto;
    int rc = as_double(rto_obj, &rto);
    Py_DECREF(rto_obj);
    if (rc < 0)
        return -1;
    /* RFC 9002 §6.2.1: the probe timeout budgets for max_ack_delay. */
    double timeout = (rto + self->max_ack_delay_ms) * (double)self->pto_backoff;
    return deadline_start(self, &self->pto_event, timeout, FirePto);
}

/* `if self.tracer: self.tracer.packet_sent(now, seq, size, direction,
 * retransmission)`. */
static int
trace_packet_sent(TransportCoreObject *self, double now, PyObject *seq,
                  long long size, PyObject *direction, int retransmission)
{
    int tracing = hook_on(self->tracer, "tracer");
    if (tracing <= 0)
        return tracing;
    PyObject *now_obj = PyFloat_FromDouble(now);
    PyObject *size_obj = now_obj == NULL ? NULL : PyLong_FromLongLong(size);
    int rc = -1;
    if (size_obj != NULL) {
        PyObject *args[6] = {self->tracer, now_obj, seq, size_obj, direction,
                             retransmission ? Py_True : Py_False};
        rc = call_method(str_packet_sent, args, 6, NULL);
    }
    Py_XDECREF(now_obj);
    Py_XDECREF(size_obj);
    return rc;
}

static int
tc_send_data_packet(TransportCoreObject *self, PyObject *chunk,
                    long long conn_start, int retx)
{
    double now;
    long long seq_v;
    if (tc_now(self, &now) < 0
        || tc_require(self->next_pkt_seq, "_next_pkt_seq") < 0)
        return -1;
    PyObject *seq = NULL, *chunks = NULL, *pkt = NULL;
    int rc = -1;
    seq = PyIter_Next(self->next_pkt_seq);
    if (seq == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetNone(PyExc_StopIteration);
        goto done;
    }
    if (as_ll(seq, &seq_v) < 0 || (chunks = PyTuple_Pack(1, chunk)) == NULL)
        goto done;
    pkt = packet_build(KindData, seq_v, chunks, -1, empty_tuple, 0.0, 0, NULL,
                       now, retx, conn_start);
    if (pkt == NULL)
        goto done;
    Py_INCREF(seq);
    Py_XSETREF(self->largest_sent, seq);
    if (tc_require(self->first_data_sent_at, "_first_data_sent_at") < 0)
        goto done;
    if (self->first_data_sent_at == Py_None) {
        PyObject *sent_at = PyFloat_FromDouble(now);
        if (sent_at == NULL)
            goto done;
        Py_SETREF(self->first_data_sent_at, sent_at);
    }
    /* The only place _inflight gains entries: its keys ascend. */
    if (tc_inflight(self) == NULL
        || inflight_append(self->inflight, seq_v, pkt) < 0)
        goto done;
    self->bytes_in_flight += PKT(pkt)->size_bytes;
    if (stats_add(self->stats, ST_SENT, 1) < 0
        || (retx && stats_add(self->stats, ST_RETX, 1) < 0)
        || trace_packet_sent(self, now, seq, PKT(pkt)->size_bytes, str_s2c,
                             retx) < 0)
        goto done;
    rc = path_send(self, 1, pkt);
done:
    Py_XDECREF(seq);
    Py_XDECREF(chunks);
    Py_XDECREF(pkt);
    return rc;
}

/* One weighted round-robin turn of the stream at the head of
 * send_queue (H2 stream weights / H3 priorities: up to weight chunks,
 * then the next stream): the number of packets sent, or -1. */
static Py_ssize_t
send_turn(TransportCoreObject *self, PyObject *send_queue, PyObject *streams,
          double cwnd)
{
    long long mss = self->mss;
    Py_ssize_t sent = 0;
    PyObject *stream_id = PySequence_GetItem(send_queue, 0);
    if (stream_id == NULL)
        return -1;
    PyObject *sstream = PyObject_GetItem(streams, stream_id);
    long long response_bytes, next_offset, weight;
    if (sstream == NULL)
        goto error;
    if (slot_get_ll(&ServerStream, sstream, SS_RESPONSE_BYTES, &response_bytes) < 0
        || slot_get_ll(&ServerStream, sstream, SS_NEXT_OFFSET, &next_offset) < 0)
        goto error;
    /* ``send_remaining`` without the property (see _PyTransportCore). */
    if (response_bytes - next_offset <= 0) {
        PyObject *args[1] = {send_queue};
        if (call_method(str_popleft, args, 1, NULL) < 0)
            goto error;
        goto out;
    }
    if (slot_get_ll(&ServerStream, sstream, SS_WEIGHT, &weight) < 0)
        goto error;
    int fin = 0;
    for (long long turn = 0; turn < weight; turn++) {
        long long offset;
        if (slot_get_ll(&ServerStream, sstream, SS_NEXT_OFFSET, &offset) < 0
            || slot_get_ll(&ServerStream, sstream, SS_RESPONSE_BYTES,
                           &response_bytes) < 0)
            goto error;
        long long remaining = response_bytes - offset;
        if (remaining <= 0)
            break;
        if ((double)(self->bytes_in_flight + mss) > cwnd)
            break;
        long long size = mss < remaining ? mss : remaining;
        if (slot_get_ll(&ServerStream, sstream, SS_RESPONSE_BYTES,
                        &response_bytes) < 0)
            goto error;
        fin = offset + size >= response_bytes;
        PyObject *chunk = chunk_new(stream_id, offset, size, fin);
        if (chunk == NULL)
            goto error;
        long long conn_start;
        if (tc_require(self->conn_send_offset, "_conn_send_offset") < 0
            || as_ll(self->conn_send_offset, &conn_start) < 0) {
            Py_DECREF(chunk);
            goto error;
        }
        PyObject *conn_end = PyLong_FromLongLong(conn_start + size);
        PyObject *next_obj = PyLong_FromLongLong(offset + size);
        int r = -1;
        if (conn_end != NULL && next_obj != NULL) {
            Py_SETREF(self->conn_send_offset, conn_end);
            conn_end = NULL;
            if (slot_set(&ServerStream, sstream, SS_NEXT_OFFSET, next_obj) == 0)
                r = tc_send_data_packet(self, chunk, conn_start, 0);
        }
        Py_DECREF(chunk);
        Py_XDECREF(conn_end);
        Py_XDECREF(next_obj);
        if (r < 0)
            goto error;
        sent++;
    }
    {
        PyObject *args[2] = {send_queue, int_minus_one};
        if (call_method(str_rotate, args, 2, NULL) < 0)
            goto error;
    }
    if (fin) {
        /* Drop the stream from the queue wherever it now is. */
        PyObject *args[2] = {send_queue, stream_id};
        if (call_method(str_remove, args, 2, NULL) < 0) {
            if (!PyErr_ExceptionMatches(PyExc_ValueError))
                goto error;
            PyErr_Clear();
        }
    }
out:
    Py_DECREF(stream_id);
    Py_XDECREF(sstream);
    return sent;
error:
    Py_DECREF(stream_id);
    Py_XDECREF(sstream);
    return -1;
}

/* `self._fast_path_enabled and fastpath.advance(self)`: 1, 0 or -1. */
static int
fast_path_advance(TransportCoreObject *self)
{
    if (tc_require(self->fast_path_enabled, "_fast_path_enabled") < 0)
        return -1;
    int enabled = PyObject_IsTrue(self->fast_path_enabled);
    if (enabled <= 0)
        return enabled;
    PyObject *advance = PyObject_GetAttr(FastpathModule, str_advance);
    PyObject *res = advance == NULL ? NULL
        : PyObject_CallOneArg(advance, (PyObject *)self);
    Py_XDECREF(advance);
    if (res == NULL)
        return -1;
    int took = PyObject_IsTrue(res);
    Py_DECREF(res);
    return took;
}

/* Every queued retransmission, exempt from the window check: the
 * number sent, or -1. */
static Py_ssize_t
send_retransmissions(TransportCoreObject *self)
{
    PyObject *queue = tc_get(self->retx_queue, "_retx_queue");
    if (queue == NULL)
        return -1;
    Py_ssize_t sent = 0;
    int more;
    while ((more = PyObject_IsTrue(queue)) > 0) {
        PyObject *args[1] = {queue};
        PyObject *entry = PyObject_VectorcallMethod(str_popleft, args, 1, NULL);
        PyObject *chunk, *conn_start_obj;
        long long conn_start;
        int r = -1;
        if (entry != NULL
            && PyArg_ParseTuple(entry, "OO", &chunk, &conn_start_obj)
            && as_ll(conn_start_obj, &conn_start) == 0)
            r = tc_send_data_packet(self, chunk, conn_start, 1);
        Py_XDECREF(entry);
        if (r < 0) {
            more = -1;
            break;
        }
        sent++;
    }
    Py_DECREF(queue);
    return more < 0 ? -1 : sent;
}

/* Round-robin turns over send_queue while the window allows: the
 * number of packets sent, or -1.  Sending never calls into the
 * controller, so the window is read once for the whole burst. */
static Py_ssize_t
send_new_data(TransportCoreObject *self)
{
    PyObject *queue = tc_get(self->send_queue, "_send_queue");
    if (queue == NULL)
        return -1;
    PyObject *streams = NULL;
    Py_ssize_t sent = 0;
    double cwnd = 0.0;
    int more = PyObject_IsTrue(queue);
    if (more > 0) {
        if (tc_config(self) < 0
            || tc_require(self->cc, "cc") < 0
            || (streams = tc_get(self->server_streams, "_server_streams")) == NULL
            || cc_cwnd(self->cc, &cwnd) < 0)
            more = -1;
    }
    while (more > 0 && !((double)(self->bytes_in_flight + self->mss) > cwnd)) {
        Py_ssize_t n = send_turn(self, queue, streams, cwnd);
        if (n < 0) {
            more = -1;
            break;
        }
        sent += n;
        more = PyObject_IsTrue(queue);
    }
    Py_DECREF(queue);
    Py_XDECREF(streams);
    return more < 0 ? -1 : sent;
}

/* 1 when a packet went out (the PTO then armed once for the burst),
 * 0 when none did, -1 on exception. */
static int
tc_try_send(TransportCoreObject *self)
{
    int took = fast_path_advance(self);
    if (took != 0)
        return took < 0 ? -1 : 0;
    Py_ssize_t retransmitted = send_retransmissions(self);
    Py_ssize_t fresh = retransmitted < 0 ? -1 : send_new_data(self);
    if (fresh < 0)
        return -1;
    int sent_any = retransmitted + fresh > 0;
    if (sent_any && tc_arm_pto(self) < 0)
        return -1;
    return sent_any;
}

/* Declare the oldest packet in flight lost: pop it, release its bytes,
 * count it and trace it with its trigger (its number boxed only then).
 * Returns the packet; the ring must not be empty. */
static PyObject *
pop_lost(TransportCoreObject *self, InflightObject *ring, PyObject *now_obj,
         PyObject *trigger)
{
    long long seq = ring->base;
    PyObject *sent = inflight_pop(ring, seq);
    self->bytes_in_flight -= PKT(sent)->size_bytes;
    if (stats_add(self->stats, ST_LOST, 1) < 0)
        goto error;
    int tracing = hook_on(self->tracer, "tracer");
    if (tracing < 0)
        goto error;
    if (tracing) {
        PyObject *seq_obj = PyLong_FromLongLong(seq);
        if (seq_obj == NULL)
            goto error;
        PyObject *args[4] = {self->tracer, now_obj, seq_obj, trigger};
        int rc = call_method(str_packet_lost, args, 4, NULL);
        Py_DECREF(seq_obj);
        if (rc < 0)
            goto error;
    }
    return sent;
error:
    Py_DECREF(sent);
    return NULL;
}

/* self._retx_queue.append((sent.chunks[0], sent.conn_start)). */
static int
queue_retransmission(TransportCoreObject *self, PyObject *sent)
{
    if (tc_require(self->retx_queue, "_retx_queue") < 0)
        return -1;
    return call_method1(self->retx_queue, str_append, retx_entry(sent), 1);
}

/* The loss response: `if self.sampler: self.sampler.on_loss(self)`. */
static int
sample_loss(TransportCoreObject *self)
{
    int sampling = hook_on(self->sampler, "sampler");
    if (sampling <= 0)
        return sampling;
    return call_method1(self->sampler, str_on_loss, (PyObject *)self, 0);
}

static int
tc_detect_losses(TransportCoreObject *self)
{
    InflightObject *ring = tc_inflight(self);
    if (ring == NULL || tc_config(self) < 0)
        return -1;
    long long cutoff = self->largest_acked - self->packet_threshold;
    /* Numbers ascend, so the lost packets are the ring's head run (see
     * _PyTransportCore._detect_losses): none when the oldest is above
     * the cutoff. */
    if (ring->count == 0 || ring->base > cutoff)
        return 0;
    double now;
    if (tc_now(self, &now) < 0)
        return -1;
    PyObject *now_obj = PyFloat_FromDouble(now);
    if (now_obj == NULL)
        return -1;
    Py_INCREF(ring);
    int rc = -1, newly_entered_recovery = 0;
    while (ring->count > 0 && ring->base <= cutoff) {
        long long seq = ring->base;
        PyObject *sent = pop_lost(self, ring, now_obj, str_packet_threshold);
        int r = sent == NULL ? -1 : queue_retransmission(self, sent);
        Py_XDECREF(sent);
        if (r < 0)
            goto done;
        if (seq > self->recovery_until_seq)
            newly_entered_recovery = 1;
    }
    if (newly_entered_recovery) {
        /* One congestion response per round trip worth of losses. */
        if (tc_require(self->cc, "cc") < 0
            || call_method1(self->cc, str_on_loss, now_obj, 0) < 0)
            goto done;
        if (tc_require(self->largest_sent, "_largest_sent") < 0
            || as_ll(self->largest_sent, &self->recovery_until_seq) < 0)
            goto done;
        int tracing = hook_on(self->tracer, "tracer");
        if (tracing < 0 || (tracing && trace_metrics(self, 1) < 0)
            || sample_loss(self) < 0)
            goto done;
    }
    rc = 0;
done:
    Py_DECREF(ring);
    Py_DECREF(now_obj);
    return rc;
}

/* After an ACK: the RTT sample from the largest newly acked packet,
 * unless it was a retransmission, net of the receiver's deliberate ack
 * delay (RFC 9002 §5.3), then the delivery-rate sample. */
static int
ack_samples(TransportCoreObject *self, PyObject *largest, PyObject *pkt,
            double now)
{
    PyObject *rtt = tc_get(self->rtt, "rtt");
    if (rtt == NULL)
        return -1;
    PyObject *rate_sampler = NULL, *srtt = NULL;
    int rc = -1;
    if (!PKT(largest)->retransmission) {
        double sample = now - PKT(largest)->sent_at - PKT(pkt)->ack_delay_ms;
        if (sample >= 0) {
            PyObject *sample_obj = PyFloat_FromDouble(sample);
            int r = sample_obj == NULL ? -1
                : rtt_sample_native(rtt, sample_obj);
            if (r == 0)
                r = call_method1(rtt, str_on_sample, sample_obj, 0);
            Py_XDECREF(sample_obj);
            if (r < 0)
                goto done;
        }
    }
    rate_sampler = tc_get(self->rate_sampler, "_rate_sampler");
    if (rate_sampler == NULL)
        goto done;
    if (rate_sampler != Py_None) {
        srtt = slot_get(&Rtt, rtt, RT_SRTT);
        int positive = srtt == NULL ? -1 : PyObject_IsTrue(srtt);
        if (positive < 0)
            goto done;
        if (positive) {
            PyObject *first = self->first_data_sent_at;
            double first_v, delivered_v;
            if (first == NULL || first == Py_None) {
                PyErr_SetNone(PyExc_AssertionError);
                goto done;
            }
            if (as_double(first, &first_v) < 0
                || tc_require(self->delivered_bytes, "_delivered_bytes") < 0
                || as_double(self->delivered_bytes, &delivered_v) < 0)
                goto done;
            double elapsed = now - first_v;
            if (elapsed > 0) {
                PyObject *rate = PyFloat_FromDouble(delivered_v / elapsed);
                PyObject *res = rate == NULL ? NULL
                    : PyObject_CallFunctionObjArgs(rate_sampler, rate, srtt, NULL);
                Py_XDECREF(rate);
                if (res == NULL)
                    goto done;
                Py_DECREF(res);
            }
        }
    }
    rc = 0;
done:
    Py_DECREF(rtt);
    Py_XDECREF(rate_sampler);
    Py_XDECREF(srtt);
    return rc;
}

static int
tc_server_on_ack(TransportCoreObject *self, PyObject *pkt)
{
    /* One ACK may cover several data packets: sack lists every newly
     * received packet number, ack_seq is the largest. */
    PyObject *acked = NULL, *seqs = NULL, *cc = NULL, *tracer = NULL,
        *now_obj = NULL, *largest = NULL;
    InflightObject *ring = NULL;
    long long largest_seq = 0, ack_seq;
    double now;
    int rc = -1;
    if (require_packet(pkt) < 0
        || (acked = pkt_object(PKT(pkt)->sack, "sack")) == NULL)
        return -1;
    Py_INCREF(acked);
    int has_sack = PyObject_IsTrue(acked);
    if (has_sack < 0)
        goto done;
    if (!has_sack) {
        PyObject *largest_acked = PyLong_FromLongLong(PKT(pkt)->ack_seq);
        Py_SETREF(acked, largest_acked == NULL ? NULL
                         : PyTuple_Pack(1, largest_acked));
        Py_XDECREF(largest_acked);
        if (acked == NULL)
            goto done;
    }
    ring = (InflightObject *)Py_XNewRef(tc_inflight(self));
    cc = ring == NULL ? NULL : tc_get(self->cc, "cc");
    tracer = cc == NULL ? NULL : tc_get(self->tracer, "tracer");
    if (tracer == NULL || tc_now(self, &now) < 0)
        goto done;
    now_obj = PyFloat_FromDouble(now);
    seqs = now_obj == NULL ? NULL : PySequence_Fast(acked, "sack must be iterable");
    if (seqs == NULL
        || stats_add(self->stats, ST_ACKS, PySequence_Fast_GET_SIZE(seqs)) < 0)
        goto done;
    int tracing = PyObject_IsTrue(tracer);
    if (tracing < 0)
        goto done;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seqs); i++) {
        PyObject *seq = PySequence_Fast_GET_ITEM(seqs, i);
        long long seq_v;
        int valid = inflight_key(seq, &seq_v);
        if (valid < 0)
            goto done;
        PyObject *sent = valid ? inflight_pop(ring, seq_v) : NULL;
        if (sent == NULL)
            continue;  /* duplicate or already declared lost */
        int r = 0;
        if (tracing) {
            PyObject *args[3] = {tracer, now_obj, seq};
            r = call_method(str_packet_acked, args, 3, NULL);
        }
        if (r < 0) {
            Py_DECREF(sent);
            goto done;
        }
        long long size = PKT(sent)->size_bytes;
        self->bytes_in_flight -= size;
        r = cc_on_ack(cc, size, now, now_obj);
        if (r == 0) {
            PyObject *delivered = tc_get(self->delivered_bytes, "_delivered_bytes");
            PyObject *total = delivered == NULL ? NULL : add_ll(delivered, size);
            Py_XDECREF(delivered);
            if (total == NULL)
                r = -1;
            else
                Py_XSETREF(self->delivered_bytes, total);
        }
        if (r == 0 && (largest == NULL || seq_v > largest_seq)) {
            largest_seq = PKT(sent)->seq;
            Py_XSETREF(largest, sent);
        }
        else {
            Py_DECREF(sent);
        }
        if (r < 0)
            goto done;
    }
    if (largest == NULL) {
        rc = 0;
        goto done;
    }
    if (ack_samples(self, largest, pkt, now) < 0)
        goto done;
    ack_seq = PKT(pkt)->ack_seq;
    if (ack_seq > self->largest_acked)
        self->largest_acked = ack_seq;
    self->pto_backoff = 1;
    if (tracing && trace_metrics(self, 0) < 0)
        goto done;
    int sampling = hook_on(self->sampler, "sampler");
    if (sampling < 0
        || (sampling && call_method1(self->sampler, str_on_ack,
                                     (PyObject *)self, 0) < 0))
        goto done;
    if (tc_detect_losses(self) < 0)
        goto done;
    /* The timer is stopped before the send attempt: an analytic walk
     * started by _try_send looks at the next pending event.  A burst
     * re-arms it; an idle attempt leaves the (re-)arm to us. */
    if (ring->count == 0 && deadline_stop(&self->pto_event) < 0)
        goto done;
    int sent = tc_try_send(self);
    if (sent < 0)
        goto done;
    if (!sent && ring->count > 0 && tc_arm_pto(self) < 0)
        goto done;
    rc = 0;
done:
    Py_XDECREF(acked);
    Py_XDECREF(seqs);
    Py_XDECREF(ring);
    Py_XDECREF(cc);
    Py_XDECREF(tracer);
    Py_XDECREF(now_obj);
    Py_XDECREF(largest);
    return rc;
}

static int
tc_on_pto(TransportCoreObject *self)
{
    InflightObject *ring = tc_inflight(self);
    if (ring == NULL)
        return -1;
    if (ring->count == 0)
        return 0;
    double now;
    if (tc_now(self, &now) < 0 || stats_add(self->stats, ST_RTO, 1) < 0)
        return -1;
    PyObject *now_obj = PyFloat_FromDouble(now);
    if (now_obj == NULL)
        return -1;
    PyObject *sent = NULL;
    long long oldest;
    int rc = -1;
    Py_INCREF(ring);
    int tracing = hook_on(self->tracer, "tracer");
    if (tracing < 0)
        goto done;
    if (tracing) {
        PyObject *backoff = PyLong_FromLongLong(self->pto_backoff);
        if (backoff == NULL)
            goto done;
        PyObject *args[4] = {self->tracer, now_obj, str_pto_fired, backoff};
        int r = call_method(str_event, args, 3, kw_backoff);
        Py_DECREF(backoff);
        if (r < 0)
            goto done;
    }
    self->pto_backoff = self->pto_backoff * 2 < 64 ? self->pto_backoff * 2 : 64;
    /* RFC 9002 §7.4: only persistent congestion collapses the window. */
    if (self->pto_backoff > 2
        && (tc_require(self->cc, "cc") < 0
            || call_method1(self->cc, str_on_rto, now_obj, 0) < 0))
        goto done;
    /* Numbers ascend: the head is the oldest. */
    if (ring->count == 0) {
        PyErr_SetNone(PyExc_StopIteration);
        goto done;
    }
    oldest = ring->base;
    sent = pop_lost(self, ring, now_obj, str_pto);
    if (sent == NULL)
        goto done;
    tracing = hook_on(self->tracer, "tracer");
    if (tracing < 0 || (tracing && trace_metrics(self, 1) < 0)
        || sample_loss(self) < 0 || queue_retransmission(self, sent) < 0)
        goto done;
    if (oldest > self->recovery_until_seq)
        if (tc_require(self->largest_sent, "_largest_sent") < 0
            || as_ll(self->largest_sent, &self->recovery_until_seq) < 0)
            goto done;
    int sent_any = tc_try_send(self);
    if (sent_any < 0)
        goto done;
    if (!sent_any && ring->count > 0 && tc_arm_pto(self) < 0)
        goto done;
    rc = 0;
done:
    Py_DECREF(now_obj);
    Py_DECREF(ring);
    Py_XDECREF(sent);
    return rc;
}

/* pkt is a Packet whose kind is PacketKind.ACK: 1, 0 or -1. */
static int
is_ack(PyObject *pkt)
{
    if (require_packet(pkt) < 0 || pkt_object(PKT(pkt)->kind, "kind") == NULL)
        return -1;
    return PKT(pkt)->kind == KindAck;
}

static PyObject *
tcm_server_on_ack(TransportCoreObject *self, PyObject *pkt)
{
    if (tc_server_on_ack(self, pkt) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
tcm_server_on_packet(TransportCoreObject *self, PyObject *pkt)
{
    int ack = is_ack(pkt);
    if (ack < 0)
        return NULL;
    if (ack)
        return tcm_server_on_ack(self, pkt);
    /* A request data packet: ack it, then absorb new chunks. */
    PyObject *reply = packet_build(KindAck, -1, empty_tuple, PKT(pkt)->seq,
                                   empty_tuple, 0.0, 0, NULL, -1.0, 0, -1);
    if (reply == NULL)
        return NULL;
    int rc = path_send(self, 1, reply);
    Py_DECREF(reply);
    PyObject *chunks = rc < 0 ? NULL : pkt_object(PKT(pkt)->chunks, "chunks");
    PyObject *iter = chunks == NULL ? NULL : PyObject_GetIter(chunks);
    if (iter == NULL)
        return NULL;
    PyObject *chunk;
    while ((chunk = PyIter_Next(iter)) != NULL) {
        rc = absorb_request_chunk(self, chunk);
        Py_DECREF(chunk);
        if (rc < 0)
            break;
    }
    Py_DECREF(iter);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
tcm_detect_losses(TransportCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    if (tc_detect_losses(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
tcm_try_send(TransportCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    int sent = tc_try_send(self);
    if (sent < 0)
        return NULL;
    return PyBool_FromLong(sent);
}

static PyObject *
tcm_send_data_packet(TransportCoreObject *self, PyObject *const *args,
                     Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_SetString(PyExc_TypeError,
                        "_send_data_packet(chunk, conn_start, retransmission)");
        return NULL;
    }
    long long conn_start;
    int retx;
    if (as_ll(args[1], &conn_start) < 0
        || (retx = PyObject_IsTrue(args[2])) < 0
        || tc_send_data_packet(self, args[0], conn_start, retx) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
tcm_arm_pto(TransportCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    if (tc_arm_pto(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
tcm_on_pto(TransportCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    if (tc_on_pto(self) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
tcm_client_on_packet(TransportCoreObject *self, PyObject *pkt)
{
    int ack = is_ack(pkt);
    if (ack < 0)
        return NULL;
    if (ack) {
        if (request_ack(self, pkt) < 0)
            return NULL;
        Py_RETURN_NONE;
    }
    /* Receipt, not delivery, drives acking; ACKs are batched (see
     * _PyTransportCore._client_on_packet_from_server). */
    double now;
    long long seq_v = PKT(pkt)->seq;
    PyObject *seq = PyLong_FromLongLong(seq_v);
    if (seq == NULL)
        return NULL;
    PyObject *now_obj = NULL;
    if (tc_now(self, &now) < 0)
        goto error;
    int tracing = hook_on(self->tracer, "tracer");
    if (tracing < 0)
        goto error;
    if (tracing) {
        now_obj = PyFloat_FromDouble(now);
        PyObject *size = now_obj == NULL ? NULL
            : PyLong_FromLongLong(PKT(pkt)->size_bytes);
        int r = -1;
        if (size != NULL) {
            PyObject *args[5] = {self->tracer, now_obj, seq, size,
                                 PKT(pkt)->retransmission ? Py_True : Py_False};
            r = call_method(str_packet_received, args, 5, NULL);
        }
        Py_XDECREF(size);
        if (r < 0)
            goto error;
    }
    long long largest = self->ack_largest_received;
    int out_of_order = seq_v != largest + 1;
    if (seq_v > largest)
        self->ack_largest_received = seq_v;
    PyObject *ack_pending = ack_pending_list(self);
    if (ack_pending == NULL || PyList_Append(ack_pending, seq) < 0)
        goto error;
    self->ack_last_recv_at = now;
    int flush = out_of_order || PKT(pkt)->retransmission;
    if (!flush) {
        if (tc_config(self) < 0)
            goto error;
        flush = PyList_GET_SIZE(ack_pending) >= self->ack_frequency;
    }
    if (flush) {
        PyObject *res = tc_flush_acks(self, NULL);
        if (res == NULL)
            goto error;
        Py_DECREF(res);
    }
    else if (self->ack_event == NULL) {
        if (tc_config(self) < 0
            || deadline_start(self, &self->ack_event, self->max_ack_delay_ms,
                           FireAck) < 0)
            goto error;
    }
    if (data_packet_received(self, pkt) < 0)
        goto error;
    Py_DECREF(seq);
    Py_XDECREF(now_obj);
    Py_RETURN_NONE;
error:
    Py_DECREF(seq);
    Py_XDECREF(now_obj);
    return NULL;
}

static PyObject *
tc_flush_acks(TransportCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    /* Send one ACK covering every pending data-packet number: the list
     * is sorted in place and emptied, as `tuple(sorted(pending))` then
     * `pending.clear()` leave it. */
    PyObject *ack_pending = ack_pending_list(self);
    if (ack_pending == NULL)
        return NULL;
    if (PyList_GET_SIZE(ack_pending) == 0)
        Py_RETURN_NONE;
    if (deadline_stop(&self->ack_event) < 0)
        return NULL;
    PyObject *pending = NULL, *reply = NULL, *result = NULL;
    double now;
    long long largest;
    Py_INCREF(ack_pending);
    if (PyList_Sort(ack_pending) < 0
        || (pending = PyList_AsTuple(ack_pending)) == NULL
        || PyList_SetSlice(ack_pending, 0, PyList_GET_SIZE(ack_pending), NULL) < 0)
        goto done;
    if (tc_now(self, &now) < 0
        || as_ll(PyTuple_GET_ITEM(pending, PyTuple_GET_SIZE(pending) - 1),
                 &largest) < 0)
        goto done;
    reply = packet_build(KindAck, -1, empty_tuple, largest, pending,
                         now - self->ack_last_recv_at, 0, NULL, -1.0, 0, -1);
    if (reply == NULL || path_send(self, 0, reply) < 0)
        goto done;
    result = Py_NewRef(Py_None);
done:
    Py_DECREF(ack_pending);
    Py_XDECREF(pending);
    Py_XDECREF(reply);
    return result;
}

/* The completion event: `if self.tracer: self.tracer.event(now,
 * "http:stream_closed", stream_id=..., first_byte_ms=(t_first_byte or
 * 0.0) - opened_at, duration_ms=now - opened_at)`. */
static int
trace_stream_closed(TransportCoreObject *self, PyObject *stream,
                    PyObject *now_obj)
{
    int tracing = hook_on(self->tracer, "tracer");
    if (tracing <= 0)
        return tracing;
    PyObject *stream_id = NULL, *first = NULL, *opened = NULL,
        *first_byte_ms = NULL, *duration_ms = NULL;
    int rc = -1;
    stream_id = slot_get(&ClientStream, stream, CS_STREAM_ID);
    first = stream_id == NULL ? NULL
        : slot_get(&ClientStream, stream, CS_T_FIRST_BYTE);
    opened = first == NULL ? NULL
        : slot_get(&ClientStream, stream, CS_OPENED_AT);
    if (opened == NULL)
        goto done;
    int has_first = PyObject_IsTrue(first);
    if (has_first < 0)
        goto done;
    first_byte_ms = PyNumber_Subtract(has_first ? first : float_zero, opened);
    duration_ms = first_byte_ms == NULL ? NULL
        : PyNumber_Subtract(now_obj, opened);
    if (duration_ms == NULL)
        goto done;
    PyObject *args[6] = {self->tracer, now_obj, str_stream_closed, stream_id,
                         first_byte_ms, duration_ms};
    rc = call_method(str_event, args, 3, kw_stream_closed);
done:
    Py_XDECREF(stream_id);
    Py_XDECREF(first);
    Py_XDECREF(opened);
    Py_XDECREF(first_byte_ms);
    Py_XDECREF(duration_ms);
    return rc;
}

/* stream.<callback>(now), unless the callback is None. */
static int
stream_callback(PyObject *stream, int field, PyObject *now_obj)
{
    PyObject *callback = slot_get(&ClientStream, stream, field);
    if (callback == NULL)
        return -1;
    int rc = 0;
    if (callback != Py_None) {
        PyObject *res = PyObject_CallOneArg(callback, now_obj);
        rc = res == NULL ? -1 : 0;
        Py_XDECREF(res);
    }
    Py_DECREF(callback);
    return rc;
}

static PyObject *
tcm_deliver_chunk(TransportCoreObject *self, PyObject *chunk)
{
    /* Strict checking runs the Python method itself: its checks sit
     * inside its branches, and their calls then come in exactly its
     * order. */
    int check = hook_on(self->check, "check");
    if (check < 0)
        return NULL;
    if (check)
        return PyObject_CallFunctionObjArgs(PyDeliverChunk, (PyObject *)self,
                                            chunk, NULL);
    PyObject *streams = self->streams;
    if (tc_require(streams, "streams") < 0)
        return NULL;
    PyObject *stream_id = chunk_get(chunk, CH_STREAM_ID, str_stream_id);
    if (stream_id == NULL)
        return NULL;
    PyObject *stream;
    if (PyDict_CheckExact(streams)) {
        stream = PyDict_GetItemWithError(streams, stream_id);
        Py_XINCREF(stream);
        if (stream == NULL && !PyErr_Occurred()) {
            stream = Py_None;
            Py_INCREF(stream);
        }
    }
    else {
        PyObject *args[2] = {streams, stream_id};
        stream = PyObject_VectorcallMethod(str_get, args, 2, NULL);
    }
    Py_DECREF(stream_id);
    if (stream == NULL)
        return NULL;
    if (stream == Py_None) {
        Py_DECREF(stream);
        Py_RETURN_NONE;
    }
    PyObject *result = NULL, *now_obj = NULL, *value = NULL, *size = NULL,
        *received = NULL, *total = NULL;
    double now;
    if (tc_now(self, &now) < 0)
        goto done;
    now_obj = PyFloat_FromDouble(now);
    if (now_obj == NULL)
        goto done;
    value = slot_get(&ClientStream, stream, CS_T_FIRST_BYTE);
    if (value == NULL)
        goto done;
    if (value == Py_None
        && (slot_set(&ClientStream, stream, CS_T_FIRST_BYTE, now_obj) < 0
            || stream_callback(stream, CS_ON_FIRST_BYTE, now_obj) < 0))
        goto done;
    Py_CLEAR(value);
    size = chunk_get(chunk, CH_SIZE, str_size);
    received = size == NULL ? NULL
        : slot_get(&ClientStream, stream, CS_RECEIVED);
    if (received == NULL)
        goto done;
    value = PyNumber_InPlaceAdd(received, size);
    if (value == NULL || slot_set(&ClientStream, stream, CS_RECEIVED, value) < 0)
        goto done;
    Py_CLEAR(value);
    Py_CLEAR(received);
    received = slot_get(&ClientStream, stream, CS_RECEIVED);
    total = received == NULL ? NULL
        : slot_get(&ClientStream, stream, CS_RESPONSE_BYTES);
    if (total == NULL)
        goto done;
    int complete = PyObject_RichCompareBool(received, total, Py_GE);
    if (complete < 0)
        goto done;
    if (complete) {
        value = slot_get(&ClientStream, stream, CS_T_COMPLETE);
        if (value == NULL)
            goto done;
        if (value == Py_None
            && (slot_set(&ClientStream, stream, CS_T_COMPLETE, now_obj) < 0
                || trace_stream_closed(self, stream, now_obj) < 0
                || stream_callback(stream, CS_ON_COMPLETE, now_obj) < 0))
            goto done;
    }
    result = Py_None;
    Py_INCREF(result);
done:
    Py_DECREF(stream);
    Py_XDECREF(now_obj);
    Py_XDECREF(value);
    Py_XDECREF(size);
    Py_XDECREF(received);
    Py_XDECREF(total);
    return result;
}

/* -- Reassembly -------------------------------------------------------- */

/* The hooks C runs itself while they are the core's own methods, each
 * with its name and the core's method descr. */
enum { HOOK_DELIVER, HOOK_TCP_RELEASE, HOOK_QUIC_CHUNK, HOOK_TCP_RECEIVE,
       HOOK_QUIC_RECEIVE, HOOK_SEND_REQUEST, HOOK_REQUEST_TIMEOUT,
       HOOK_REQUEST_ACK, HOOK_ABSORB, HOOK_ENQUEUE, HOOK_COUNT };
static const struct { PyObject **name, **descr; } Hooks[HOOK_COUNT] = {
    [HOOK_DELIVER] = {&str_deliver_chunk, &DescrDeliver},
    [HOOK_TCP_RELEASE] = {&str_release_packet, &DescrTcpRelease},
    [HOOK_QUIC_CHUNK] = {&str_receive_stream_chunk, &DescrQuicChunk},
    [HOOK_TCP_RECEIVE] = {&str_on_data_packet_received, &DescrTcpReceive},
    [HOOK_QUIC_RECEIVE] = {&str_on_data_packet_received, &DescrQuicReceive},
    [HOOK_SEND_REQUEST] = {&str_send_request_packet, &DescrSendRequest},
    [HOOK_REQUEST_TIMEOUT] = {&str_on_request_timeout, &DescrRequestTimeout},
    [HOOK_REQUEST_ACK] = {&str_on_request_ack, &DescrRequestAck},
    [HOOK_ABSORB] = {&str_absorb_request_chunk, &DescrAbsorb},
    [HOOK_ENQUEUE] = {&str_enqueue_response, &DescrEnqueue},
};

/* Whether an instance attribute shadows the class's name. */
static int
shadowed(TransportCoreObject *self, PyObject *name)
{
    PyObject **dict = _PyObject_GetDictPtr((PyObject *)self);
    if (dict == NULL || *dict == NULL)
        return 0;
    PyObject *value = PyDict_GetItemWithError(*dict, name);
    if (value == NULL && PyErr_Occurred())
        PyErr_Clear();
    return value != NULL;
}

/* Before 3.12 a dict's version tag changes with every change to it and
 * is unique across dicts, so an unchanged tag means no instance
 * attribute came or went.  Later dicts carry no such tag, and the
 * instance dict is probed per call. */
#if PY_VERSION_HEX < 0x030C0000
#define OWN_DICT_VERSIONED 1
static uint64_t
instance_dict_version(TransportCoreObject *self)
{
    PyObject **dict = _PyObject_GetDictPtr((PyObject *)self);
    return dict == NULL || *dict == NULL ? 0
        : ((PyDictObject *)*dict)->ma_version_tag;
}
#else
#define OWN_DICT_VERSIONED 0
#endif

/* Whether self.<hook> is the core's own method descr: no class between
 * overrides it and no instance attribute shadows it.  Then C runs the
 * method itself.  The answers for all hooks are worked out together and
 * kept while the class's version tag (which assigning to the class or a
 * base changes) and the instance dict's version stay the same. */
static int
own_method(TransportCoreObject *self, int hook)
{
    PyTypeObject *type = Py_TYPE(self);
    int fresh = self->own_type_tag != 0
        && (type->tp_flags & Py_TPFLAGS_VALID_VERSION_TAG)
        && type->tp_version_tag == self->own_type_tag;
#if OWN_DICT_VERSIONED
    uint64_t version = instance_dict_version(self);
    fresh = fresh && version == self->own_dict_version;
#endif
    if (!fresh) {
        unsigned int bits = 0;
        for (int i = 0; i < HOOK_COUNT; i++)
            if (_PyType_Lookup(type, *Hooks[i].name) == *Hooks[i].descr
                && !(OWN_DICT_VERSIONED && shadowed(self, *Hooks[i].name)))
                bits |= 1u << i;
        self->own_bits = bits;
        self->own_type_tag = (type->tp_flags & Py_TPFLAGS_VALID_VERSION_TAG)
            ? type->tp_version_tag : 0;
#if OWN_DICT_VERSIONED
        self->own_dict_version = version;
#endif
    }
    int own = (self->own_bits >> hook) & 1;
    if (!OWN_DICT_VERSIONED && own)
        own = !shadowed(self, *Hooks[hook].name);
    return own;
}

/* self.<name>(arg), result dropped. */
static int
call_self(TransportCoreObject *self, PyObject *name, PyObject *arg)
{
    return call_method1((PyObject *)self, name, arg, 0);
}

/* self._deliver_chunk(chunk). */
static int
deliver(TransportCoreObject *self, PyObject *chunk)
{
    if (own_method(self, HOOK_DELIVER))
        return result_status(tcm_deliver_chunk(self, chunk));
    return call_self(self, str_deliver_chunk, chunk);
}

/* loop.now as a new float. */
static PyObject *
now_object(TransportCoreObject *self)
{
    double now;
    if (tc_now(self, &now) < 0)
        return NULL;
    return PyFloat_FromDouble(now);
}

/* `if self.tracer: self.tracer.event(now, name, k1=v1[, k2=v2])`, the
 * keywords named by kwnames; v2 is NULL for a single keyword. */
static int
trace_event(TransportCoreObject *self, PyObject *name, PyObject *kwnames,
            PyObject *v1, PyObject *v2)
{
    int tracing = hook_on(self->tracer, "tracer");
    if (tracing <= 0)
        return tracing;
    PyObject *now_obj = now_object(self);
    if (now_obj == NULL)
        return -1;
    PyObject *args[5] = {self->tracer, now_obj, name, v1, v2};
    int rc = call_method(str_event, args, 3, kwnames);
    Py_DECREF(now_obj);
    return rc;
}

/* mapping.get(key, default) and mapping.pop(key[, default]) as new
 * references: the dict API on a dict, the methods otherwise. */
static PyObject *
map_get(PyObject *map, PyObject *key, PyObject *deflt)
{
    if (PyDict_CheckExact(map)) {
        PyObject *value = PyDict_GetItemWithError(map, key);
        if (value == NULL && PyErr_Occurred())
            return NULL;
        return Py_NewRef(value != NULL ? value : deflt);
    }
    PyObject *args[3] = {map, key, deflt};
    return PyObject_VectorcallMethod(str_get, args, 3, NULL);
}

static PyObject *
map_pop(PyObject *map, PyObject *key, PyObject *deflt)
{
    if (PyDict_CheckExact(map))
        return dict_pop(map, key, deflt);
    PyObject *args[3] = {map, key, deflt};
    return PyObject_VectorcallMethod(str_pop, args, deflt == NULL ? 2 : 3, NULL);
}

/* A stall ended now: `duration = now - started`, one more stall and
 * its duration on the stats, and the traced event (with stream_id for
 * a QUIC stream, when not NULL). */
static int
stall_ended(TransportCoreObject *self, PyObject *started, PyObject *stream_id)
{
    PyObject *now_obj = now_object(self);
    PyObject *duration = now_obj == NULL ? NULL
        : PyNumber_Subtract(now_obj, started);
    Py_XDECREF(now_obj);
    if (duration == NULL)
        return -1;
    int rc = -1;
    if (stats_add(self->stats, ST_HOL_STALLS, 1) == 0
        && stats_add_obj(self->stats, ST_HOL_STALL_MS, duration) == 0)
        rc = stream_id == NULL
            ? trace_event(self, str_hol_ended, kw_duration, duration, NULL)
            : trace_event(self, str_hol_ended, kw_stream_duration, stream_id,
                          duration);
    Py_DECREF(duration);
    return rc;
}

/* _PyTransportCore._tcp_release_packet. */
static int
tcp_release(TransportCoreObject *self, PyObject *pkt)
{
    if (require_packet(pkt) < 0)
        return -1;
    PyObject *rcv_next = tc_get(self->rcv_next, "_rcv_next");
    PyObject *total = rcv_next == NULL ? NULL
        : add_ll(rcv_next, PKT(pkt)->payload_bytes);
    Py_XDECREF(rcv_next);
    if (total == NULL)
        return -1;
    Py_XSETREF(self->rcv_next, total);
    PyObject *seq = packet_chunks(pkt);
    if (seq == NULL)
        return -1;
    int rc = 0;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq); i++) {
        if (deliver(self, PySequence_Fast_GET_ITEM(seq, i)) < 0) {
            rc = -1;
            break;
        }
    }
    Py_DECREF(seq);
    return rc;
}

static PyObject *
tcm_tcp_release(TransportCoreObject *self, PyObject *pkt)
{
    if (tcp_release(self, pkt) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* self._release_packet(pkt). */
static int
release_packet(TransportCoreObject *self, PyObject *pkt)
{
    if (own_method(self, HOOK_TCP_RELEASE))
        return result_status(tcm_tcp_release(self, pkt));
    return call_self(self, str_release_packet, pkt);
}

/* _PyTransportCore._tcp_on_data_packet_received: release in
 * connection-byte order, holding whatever lies past a gap. */
static int
tcp_receive(TransportCoreObject *self, PyObject *pkt)
{
    PyObject *rcv_next = NULL, *buffer = NULL, *key = NULL;
    long long start, next_v;
    int rc = -1;
    if (require_packet(pkt) < 0)
        return -1;
    start = PKT(pkt)->conn_start;
    rcv_next = tc_get(self->rcv_next, "_rcv_next");
    if (rcv_next == NULL || as_ll(rcv_next, &next_v) < 0)
        goto done;
    if (start < next_v) {  /* duplicate of already-delivered data */
        rc = 0;
        goto done;
    }
    buffer = tc_get(self->reorder_buffer, "_reorder_buffer");
    if (buffer == NULL)
        goto done;
    if (start > next_v) {
        /* Gap: everything in the buffer, any stream, is HoL-blocked. */
        key = PyLong_FromLongLong(start);
        int held = key == NULL ? -1 : PySequence_Contains(buffer, key);
        if (held != 0) {
            rc = held < 0 ? -1 : 0;
            goto done;
        }
        int blocked = PyObject_IsTrue(buffer);
        if (blocked < 0)
            goto done;
        if (!blocked) {
            PyObject *now_obj = now_object(self);
            if (now_obj == NULL)
                goto done;
            Py_XSETREF(self->stall_started_at, now_obj);
            if (trace_event(self, str_hol_started, kw_blocked_from, rcv_next,
                            NULL) < 0)
                goto done;
        }
        if (PyObject_SetItem(buffer, key, pkt) < 0)
            goto done;
        PyObject *chunks = pkt_object(PKT(pkt)->chunks, "chunks");
        Py_ssize_t n = chunks == NULL ? -1 : PyObject_Length(chunks);
        if (n < 0 || stats_add(self->stats, ST_HOL_CHUNKS, n) < 0)
            goto done;
        rc = 0;
        goto done;
    }
    if (release_packet(self, pkt) < 0)
        goto done;
    int blocked = PyObject_IsTrue(buffer);
    if (blocked <= 0) {  /* nothing was blocked: no stall can end here */
        rc = blocked;
        goto done;
    }
    for (;;) {
        key = tc_get(self->rcv_next, "_rcv_next");
        int held = key == NULL ? -1 : PySequence_Contains(buffer, key);
        if (held <= 0) {
            if (held < 0)
                goto done;
            break;
        }
        PyObject *next = map_pop(buffer, key, NULL);
        if (next == NULL)
            goto done;
        int r = release_packet(self, next);
        Py_DECREF(next);
        if (r < 0)
            goto done;
        Py_CLEAR(key);
    }
    if ((blocked = PyObject_IsTrue(buffer)) < 0
        || (!blocked
            && tc_require(self->stall_started_at, "_stall_started_at") < 0))
        goto done;
    if (!blocked && self->stall_started_at != Py_None) {
        PyObject *started = self->stall_started_at;
        self->stall_started_at = Py_NewRef(Py_None);
        int r = stall_ended(self, started, NULL);
        Py_DECREF(started);
        if (r < 0)
            goto done;
    }
    rc = 0;
done:
    Py_XDECREF(rcv_next);
    Py_XDECREF(buffer);
    Py_XDECREF(key);
    return rc;
}

static PyObject *
tcm_tcp_receive(TransportCoreObject *self, PyObject *pkt)
{
    if (tcp_receive(self, pkt) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* _PyTransportCore._quic_receive_stream_chunk: reassemble one stream,
 * holding only that stream's chunks past its gap. */
static int
quic_chunk(TransportCoreObject *self, PyObject *chunk)
{
    PyObject *stream_id = NULL, *offset = NULL, *expected = NULL,
        *buffer = NULL, *size = NULL, *started = NULL;
    int rc = -1, cmp;
    stream_id = chunk_get(chunk, CH_STREAM_ID, str_stream_id);
    offset = stream_id == NULL ? NULL : chunk_get(chunk, CH_OFFSET, str_offset);
    if (offset == NULL
        || tc_require(self->stream_rcv_next, "_stream_rcv_next") < 0
        || (expected = map_get(self->stream_rcv_next, stream_id, int_zero)) == NULL)
        goto done;
    cmp = PyObject_RichCompareBool(offset, expected, Py_LT);
    if (cmp != 0) {  /* duplicate */
        rc = cmp < 0 ? -1 : 0;
        goto done;
    }
    if ((cmp = PyObject_RichCompareBool(offset, expected, Py_GT)) < 0)
        goto done;
    if (cmp) {
        /* Gap within this stream only: other streams are unaffected.
         * buffer = self._stream_buffers.setdefault(stream_id, {}). */
        PyObject *buffers = self->stream_buffers;
        if (tc_require(buffers, "_stream_buffers") < 0)
            goto done;
        if (PyDict_CheckExact(buffers)) {
            buffer = PyDict_GetItemWithError(buffers, stream_id);
            if (buffer != NULL)
                Py_INCREF(buffer);
            else if (!PyErr_Occurred()
                     && (buffer = PyDict_New()) != NULL
                     && PyDict_SetItem(buffers, stream_id, buffer) < 0)
                Py_CLEAR(buffer);
        }
        else {
            PyObject *fresh = PyDict_New();
            if (fresh != NULL) {
                PyObject *args[3] = {buffers, stream_id, fresh};
                buffer = PyObject_VectorcallMethod(str_setdefault, args, 3, NULL);
                Py_DECREF(fresh);
            }
        }
        if (buffer == NULL)
            goto done;
        int held = PySequence_Contains(buffer, offset);
        if (held != 0) {
            rc = held < 0 ? -1 : 0;
            goto done;
        }
        int blocked = PyObject_IsTrue(buffer);
        if (blocked < 0)
            goto done;
        if (!blocked) {
            PyObject *now_obj = now_object(self);
            int r = now_obj == NULL
                || tc_require(self->stream_stall_started, "_stream_stall_started") < 0
                ? -1 : PyObject_SetItem(self->stream_stall_started, stream_id, now_obj);
            Py_XDECREF(now_obj);
            if (r < 0
                || trace_event(self, str_hol_started, kw_stream_blocked_from,
                               stream_id, expected) < 0)
                goto done;
        }
        if (PyObject_SetItem(buffer, offset, chunk) < 0
            || stats_add(self->stats, ST_HOL_CHUNKS, 1) < 0)
            goto done;
        rc = 0;
        goto done;
    }
    if (deliver(self, chunk) < 0)
        goto done;
    size = chunk_get(chunk, CH_SIZE, str_size);
    if (size == NULL)
        goto done;
    Py_SETREF(expected, PyNumber_Add(offset, size));
    if (expected == NULL
        || tc_require(self->stream_buffers, "_stream_buffers") < 0
        || (buffer = map_get(self->stream_buffers, stream_id, Py_None)) == NULL)
        goto done;
    int blocked = PyObject_IsTrue(buffer);
    if (blocked < 0)
        goto done;
    if (blocked) {
        int held;
        while ((held = PySequence_Contains(buffer, expected)) > 0) {
            PyObject *queued = map_pop(buffer, expected, NULL);
            if (queued == NULL)
                goto done;
            PyObject *q_offset = NULL, *q_size = NULL;
            int r = deliver(self, queued);
            if (r == 0) {
                q_offset = chunk_get(queued, CH_OFFSET, str_offset);
                q_size = q_offset == NULL ? NULL
                    : chunk_get(queued, CH_SIZE, str_size);
            }
            Py_DECREF(queued);
            Py_SETREF(expected, q_size == NULL ? NULL
                                : PyNumber_Add(q_offset, q_size));
            Py_XDECREF(q_offset);
            Py_XDECREF(q_size);
            if (expected == NULL)
                goto done;
        }
        if (held < 0)
            goto done;
    }
    if (tc_require(self->stream_rcv_next, "_stream_rcv_next") < 0
        || PyObject_SetItem(self->stream_rcv_next, stream_id, expected) < 0
        || (blocked = PyObject_IsTrue(buffer)) < 0)
        goto done;
    if (!blocked) {
        if (tc_require(self->stream_stall_started, "_stream_stall_started") < 0
            || (started = map_pop(self->stream_stall_started, stream_id,
                                  Py_None)) == NULL)
            goto done;
        if (started != Py_None && stall_ended(self, started, stream_id) < 0)
            goto done;
    }
    rc = 0;
done:
    Py_XDECREF(stream_id);
    Py_XDECREF(offset);
    Py_XDECREF(expected);
    Py_XDECREF(buffer);
    Py_XDECREF(size);
    Py_XDECREF(started);
    return rc;
}

static PyObject *
tcm_quic_chunk(TransportCoreObject *self, PyObject *chunk)
{
    if (quic_chunk(self, chunk) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* _PyTransportCore._quic_on_data_packet_received: each chunk to
 * self._receive_stream_chunk. */
static int
quic_receive(TransportCoreObject *self, PyObject *pkt)
{
    PyObject *seq = packet_chunks(pkt);
    if (seq == NULL)
        return -1;
    int rc = 0;
    for (Py_ssize_t i = 0; i < PySequence_Fast_GET_SIZE(seq) && rc == 0; i++) {
        PyObject *chunk = PySequence_Fast_GET_ITEM(seq, i);
        rc = own_method(self, HOOK_QUIC_CHUNK)
            ? result_status(tcm_quic_chunk(self, chunk))
            : call_self(self, str_receive_stream_chunk, chunk);
    }
    Py_DECREF(seq);
    return rc;
}

static PyObject *
tcm_quic_receive(TransportCoreObject *self, PyObject *pkt)
{
    if (quic_receive(self, pkt) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* self._on_data_packet_received(pkt): the core's reassembly in C when
 * the class aliases its own, the (overriding) method otherwise. */
static int
data_packet_received(TransportCoreObject *self, PyObject *pkt)
{
    PyObject *name = str_on_data_packet_received;
    if (own_method(self, HOOK_TCP_RECEIVE))
        return result_status(tcm_tcp_receive(self, pkt));
    if (own_method(self, HOOK_QUIC_RECEIVE))
        return result_status(tcm_quic_receive(self, pkt));
    return call_self(self, name, pkt);
}

/* -- Deadline methods ----------------------------------------------- */

static PyObject *
tcm_stop_deadlines(TransportCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    self->closed = 1;
    Py_CLEAR(self->client_receiver);
    Py_CLEAR(self->server_receiver);
    Py_CLEAR(self->send_path);
    Py_CLEAR(self->send_client);
    Py_CLEAR(self->send_server);
    /* An empty ring lets go of its buffer; a closed connection whose
     * packets are still in flight keeps processing their ACKs. */
    if (self->inflight != NULL && self->inflight->count == 0)
        inflight_clear(self->inflight);
    if (deadline_stop(&self->pto_event) < 0
        || deadline_stop(&self->ack_event) < 0
        || deadline_stop(&self->hs_event) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
tcm_start_handshake_deadline(TransportCoreObject *self, PyObject *delay)
{
    double delay_v;
    if (as_double(delay, &delay_v) < 0
        || deadline_start(self, &self->hs_event, delay_v, FireHandshake) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
tcm_stop_handshake_deadline(TransportCoreObject *self,
                            PyObject *Py_UNUSED(ignored))
{
    if (deadline_stop(&self->hs_event) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* The deadlines' event callbacks: drop the handle first, as
 * Timer._fire does, then run the handler. */
static TransportCoreObject *
fired_connection(PyObject *conn)
{
    if (!PyObject_TypeCheck(conn, &TransportCoreType)) {
        PyErr_SetString(PyExc_TypeError, "expected a TransportCore");
        return NULL;
    }
    return (TransportCoreObject *)conn;
}

static PyObject *
ckernel_fire_pto(PyObject *module, PyObject *conn)
{
    TransportCoreObject *self = fired_connection(conn);
    if (self == NULL)
        return NULL;
    Py_CLEAR(self->pto_event);
    return tcm_on_pto(self, NULL);
}

static PyObject *
ckernel_fire_ack(PyObject *module, PyObject *conn)
{
    TransportCoreObject *self = fired_connection(conn);
    if (self == NULL)
        return NULL;
    Py_CLEAR(self->ack_event);
    return tc_flush_acks(self, NULL);
}

static PyObject *
ckernel_fire_handshake(PyObject *module, PyObject *conn)
{
    TransportCoreObject *self = fired_connection(conn);
    if (self == NULL)
        return NULL;
    Py_CLEAR(self->hs_event);
    return PyObject_CallMethodNoArgs(conn, str_on_handshake_timeout);
}

/* -- The request exchange --------------------------------------------- */

/* _PyTransportCore.request and what it sets going, method for method:
 * the client opens a stream and sends its request packets, each with
 * its retransmission timeout; the server acks each, reassembles the
 * request and, after the stream's think time, queues the response for
 * the send burst.  The streams, chunks and pending entries are the
 * Python classes' instances, filled slot by slot, and the packets are
 * native Packets; the timeout
 * and think-time events are the same call_later events, scheduled in
 * the same order, with module functions as their callbacks. */

/* next(iterator), new reference; StopIteration when exhausted. */
static PyObject *
next_of(PyObject *iterator, const char *name)
{
    if (tc_require(iterator, name) < 0)
        return NULL;
    if (!PyIter_Check(iterator)) {
        PyErr_Format(PyExc_TypeError, "'%.100s' object is not an iterator",
                     Py_TYPE(iterator)->tp_name);
        return NULL;
    }
    PyObject *value = PyIter_Next(iterator);
    if (value == NULL && !PyErr_Occurred())
        PyErr_SetNone(PyExc_StopIteration);
    return value;
}

/* self.<name> truth: 1, 0 or -1. */
static int
attr_true(PyObject *obj, PyObject *name)
{
    PyObject *value = PyObject_GetAttr(obj, name);
    if (value == NULL)
        return -1;
    int truth = PyObject_IsTrue(value);
    Py_DECREF(value);
    return truth;
}

/* `not self.closed and (self.established or self.zero_rtt)`: new
 * reference to the value the property returns. */
static PyObject *
request_gate(PyObject *self)
{
    int closed = attr_true(self, str_closed);
    if (closed != 0)
        return closed < 0 ? NULL : Py_NewRef(Py_False);
    PyObject *established = PyObject_GetAttr(self, str_established);
    int truth = established == NULL ? -1 : PyObject_IsTrue(established);
    if (truth > 0)
        return established;
    Py_XDECREF(established);
    return truth < 0 ? NULL : PyObject_GetAttr(self, str_zero_rtt);
}

static PyObject *
tc_get_can_send(TransportCoreObject *self, void *Py_UNUSED(closure))
{
    return request_gate((PyObject *)self);
}

/* self.can_send_requests truth, the core's own property in C. */
static int
can_send_requests(TransportCoreObject *self)
{
    PyObject *gate = _PyType_Lookup(Py_TYPE(self), str_can_send_requests) == DescrCanSend
        ? request_gate((PyObject *)self)
        : PyObject_GetAttr((PyObject *)self, str_can_send_requests);
    if (gate == NULL)
        return -1;
    int truth = PyObject_IsTrue(gate);
    Py_DECREF(gate);
    return truth;
}

/* self.<hook>(arg): own(self, arg) while that is the core's own method
 * (see own_method), the method otherwise. */
static int
dispatch(TransportCoreObject *self, int hook,
         int (*own)(TransportCoreObject *, PyObject *), PyObject *arg)
{
    if (own_method(self, hook))
        return own(self, arg);
    return call_self(self, *Hooks[hook].name, arg);
}

static int tc_send_request(TransportCoreObject *self, PyObject *chunk,
                           PyObject *tries);

/* self._send_request_packet(chunk, tries). */
static int
send_request(TransportCoreObject *self, PyObject *chunk, PyObject *tries)
{
    if (own_method(self, HOOK_SEND_REQUEST))
        return tc_send_request(self, chunk, tries);
    PyObject *args[3] = {(PyObject *)self, chunk, tries};
    return call_method(str_send_request_packet, args, 3, NULL);
}

/* The request's packets, MSS-sized, the last one with fin. */
static int
send_request_chunks(TransportCoreObject *self, PyObject *stream_id,
                    PyObject *request_bytes)
{
    if (tc_config(self) < 0)
        return -1;
    PyObject *mss = PyLong_FromLongLong(self->mss);
    if (mss == NULL)
        return -1;
    PyObject *offset = Py_NewRef(int_zero);
    int more, rc = -1;
    while ((more = PyObject_RichCompareBool(offset, request_bytes, Py_LT)) > 0) {
        PyObject *remaining = PyNumber_Subtract(request_bytes, offset);
        if (remaining == NULL)
            break;
        int smaller = PyObject_RichCompareBool(remaining, mss, Py_LT);
        /* min(mss, remaining) */
        PyObject *size = smaller < 0 ? NULL : Py_NewRef(smaller ? remaining : mss);
        Py_DECREF(remaining);
        PyObject *end = size == NULL ? NULL : PyNumber_Add(offset, size);
        PyObject *fin = end == NULL ? NULL
            : PyObject_RichCompare(end, request_bytes, Py_GE);
        PyObject *chunk = fin == NULL ? NULL
            : chunk_from(stream_id, offset, size, fin);
        int r = chunk == NULL ? -1 : send_request(self, chunk, int_zero);
        Py_XDECREF(chunk);
        Py_XDECREF(fin);
        Py_XDECREF(end);
        if (r < 0) {
            Py_XDECREF(size);
            break;
        }
        Py_SETREF(offset, PyNumber_InPlaceAdd(offset, size));
        Py_DECREF(size);
        if (offset == NULL)
            break;
    }
    if (more == 0)
        rc = 0;
    Py_XDECREF(offset);
    Py_DECREF(mss);
    return rc;
}

/* `if self.tracer: self.tracer.event(now, "http:stream_opened", ...)`. */
static int
trace_stream_opened(TransportCoreObject *self, PyObject *now_obj,
                    PyObject *stream_id, PyObject *request_bytes,
                    PyObject *response_bytes)
{
    int tracing = hook_on(self->tracer, "tracer");
    if (tracing <= 0)
        return tracing;
    PyObject *args[6] = {self->tracer, now_obj, str_stream_opened, stream_id,
                         request_bytes, response_bytes};
    return call_method(str_event, args, 3, kw_stream_opened);
}

static PyObject *
tcm_request(TransportCoreObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"request_bytes", "response_bytes", "think_ms",
                             "on_first_byte", "on_complete", "weight", NULL};
    PyObject *request_bytes, *response_bytes, *think_ms = Py_None,
        *on_first_byte = Py_None, *on_complete = Py_None, *weight = int_one;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO|OOOO:request", kwlist,
                                     &request_bytes, &response_bytes, &think_ms,
                                     &on_first_byte, &on_complete, &weight))
        return NULL;
    int ready = can_send_requests(self);
    if (ready <= 0) {
        if (ready == 0)
            PyErr_SetString(TransportError, "connection not ready for requests");
        return NULL;
    }
    int bad = PyObject_RichCompareBool(request_bytes, int_zero, Py_LE);
    if (bad == 0)
        bad = PyObject_RichCompareBool(response_bytes, int_zero, Py_LE);
    if (bad != 0) {
        if (bad > 0)
            PyErr_SetString(PyExc_ValueError,
                            "request and response sizes must be positive");
        return NULL;
    }
    PyObject *stream_id = NULL, *now_obj = NULL, *stream = NULL,
        *offsets = NULL, *sstream = NULL;
    PyObject *result = NULL;
    double now;
    stream_id = next_of(self->next_stream_id, "_next_stream_id");
    if (stream_id == NULL || tc_now(self, &now) < 0
        || (now_obj = PyFloat_FromDouble(now)) == NULL)
        goto done;
    PyObject *client_values[] = {
        Py_None, on_first_byte, int_zero, response_bytes, Py_None, on_complete,
        stream_id, now_obj, request_bytes};
    stream = slotted_new(&ClientStream, client_values);
    if (stream == NULL
        || trace_stream_opened(self, now_obj, stream_id, request_bytes,
                               response_bytes) < 0
        || tc_require(self->streams, "streams") < 0
        || PyObject_SetItem(self->streams, stream_id, stream) < 0)
        goto done;
    if (think_ms == Py_None) {
        think_ms = self->server_think_ms;
        if (tc_require(think_ms, "server_think_ms") < 0)
            goto done;
    }
    /* max(1, weight) */
    int heavier = PyObject_RichCompareBool(weight, int_one, Py_GT);
    if (heavier < 0 || (offsets = PySet_New(NULL)) == NULL)
        goto done;
    PyObject *server_values[] = {
        response_bytes, int_zero, heavier ? weight : int_one, stream_id,
        think_ms, int_zero, Py_None, offsets, Py_False};
    sstream = slotted_new(&ServerStream, server_values);
    if (sstream == NULL
        || tc_require(self->server_streams, "_server_streams") < 0
        || PyObject_SetItem(self->server_streams, stream_id, sstream) < 0
        || send_request_chunks(self, stream_id, request_bytes) < 0)
        goto done;
    result = Py_NewRef(stream);
done:
    Py_XDECREF(stream_id);
    Py_XDECREF(now_obj);
    Py_XDECREF(stream);
    Py_XDECREF(offsets);
    Py_XDECREF(sstream);
    return result;
}

/* One request packet: numbered, traced, its timeout scheduled at
 * rto_ms * 2**min(tries, 6), recorded as pending, then sent. */
static int
tc_send_request(TransportCoreObject *self, PyObject *chunk, PyObject *tries)
{
    double now, rto;
    long long seq_v, tries_v;
    PyObject *seq = NULL, *chunks = NULL, *pkt = NULL, *rto_obj = NULL,
        *timeout = NULL, *pending = NULL;
    int rc = -1, retx;
    seq = next_of(self->req_seq, "_req_seq");
    if (seq == NULL || as_ll(seq, &seq_v) < 0 || tc_now(self, &now) < 0
        || (chunks = PyTuple_Pack(1, chunk)) == NULL
        || (retx = PyObject_RichCompareBool(tries, int_zero, Py_GT)) < 0)
        goto done;
    pkt = packet_build(KindData, seq_v, chunks, -1, empty_tuple, 0.0, 0, NULL,
                       now, retx, -1);
    if (pkt == NULL
        || trace_packet_sent(self, now, seq, PKT(pkt)->size_bytes, str_c2s,
                             retx) < 0)
        goto done;
    if (tc_require(self->rtt, "rtt") < 0
        || (rto_obj = slot_get(&Rtt, self->rtt, RT_RTO)) == NULL
        || as_double(rto_obj, &rto) < 0 || as_ll(tries, &tries_v) < 0)
        goto done;
    /* 2 ** min(tries, 6), exactly (2 ** -2000 is 0.0 in Python too). */
    int exponent = tries_v > 6 ? 6 : tries_v < -2000 ? -2000 : (int)tries_v;
    timeout = loop_call_later(self, rto * ldexp(1.0, exponent),
                              FireRequestTimeout, seq);
    if (timeout == NULL)
        goto done;
    PyObject *pending_values[] = {pkt, timeout, tries};
    pending = slotted_new(&PendingRequest, pending_values);
    if (pending == NULL
        || tc_require(self->pending_requests, "_pending_requests") < 0
        || PyObject_SetItem(self->pending_requests, seq, pending) < 0)
        goto done;
    rc = path_send(self, 0, pkt);
done:
    Py_XDECREF(seq);
    Py_XDECREF(chunks);
    Py_XDECREF(pkt);
    Py_XDECREF(rto_obj);
    Py_XDECREF(timeout);
    Py_XDECREF(pending);
    return rc;
}

static PyObject *
tcm_send_request(TransportCoreObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"chunk", "tries", NULL};
    PyObject *chunk, *tries = int_zero;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|O:_send_request_packet",
                                     kwlist, &chunk, &tries)
        || tc_send_request(self, chunk, tries) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* The retry budget ran out: close and report to on_error, or raise. */
static int
request_failed(TransportCoreObject *self, PyObject *attempts)
{
    PyObject *who = PyObject_GetAttr((PyObject *)self, str_name);
    int named = who == NULL ? -1 : PyObject_IsTrue(who);
    if (named < 0) {
        Py_XDECREF(who);
        return -1;
    }
    if (!named) {
        Py_SETREF(who, PyObject_GetAttr((PyObject *)self, str_protocol_name));
        if (who == NULL)
            return -1;
    }
    PyObject *message = PyUnicode_FromFormat(
        "%S: request packet lost %S times", who, attempts);
    Py_DECREF(who);
    PyObject *error = message == NULL ? NULL
        : PyObject_CallOneArg(TransportError, message);
    Py_XDECREF(message);
    if (error == NULL)
        return -1;
    PyObject *on_error = PyObject_GetAttr((PyObject *)self, str_on_error);
    int rc = -1;
    if (on_error == NULL)
        goto done;
    if (on_error != Py_None) {
        PyObject *res = PyObject_CallMethodNoArgs((PyObject *)self, str_close);
        if (res == NULL)
            goto done;
        Py_DECREF(res);
        res = PyObject_CallOneArg(on_error, error);
        if (res == NULL)
            goto done;
        Py_DECREF(res);
        rc = 0;
        goto done;
    }
    PyErr_SetObject((PyObject *)Py_TYPE(error), error);
done:
    Py_DECREF(error);
    Py_XDECREF(on_error);
    return rc;
}

static int
tc_request_timeout(TransportCoreObject *self, PyObject *seq)
{
    if (tc_require(self->pending_requests, "_pending_requests") < 0)
        return -1;
    PyObject *pending = map_pop(self->pending_requests, seq, Py_None);
    if (pending == NULL)
        return -1;
    if (pending == Py_None) {
        Py_DECREF(pending);
        return 0;
    }
    PyObject *tries = NULL, *attempts = NULL, *limit = NULL, *packet = NULL,
        *chunks = NULL, *chunk = NULL;
    int rc = -1;
    if (stats_add(self->stats, ST_REQUEST_RETX, 1) < 0
        || (tries = slot_get(&PendingRequest, pending, PR_TRIES)) == NULL
        || (attempts = PyNumber_Add(tries, int_one)) == NULL
        || tc_require(self->config, "config") < 0
        || (limit = PyObject_GetAttr(self->config, str_max_request_retries)) == NULL)
        goto done;
    int exhausted = PyObject_RichCompareBool(attempts, limit, Py_GT);
    if (exhausted < 0)
        goto done;
    if (exhausted) {
        rc = request_failed(self, attempts);
        goto done;
    }
    packet = slot_get(&PendingRequest, pending, PR_PACKET);
    chunks = packet == NULL ? NULL : packet_chunks(packet);
    chunk = chunks == NULL ? NULL : PySequence_GetItem(chunks, 0);
    if (chunk == NULL)
        goto done;
    rc = send_request(self, chunk, attempts);
done:
    Py_DECREF(pending);
    Py_XDECREF(tries);
    Py_XDECREF(attempts);
    Py_XDECREF(limit);
    Py_XDECREF(packet);
    Py_XDECREF(chunks);
    Py_XDECREF(chunk);
    return rc;
}

static PyObject *
tcm_request_timeout(TransportCoreObject *self, PyObject *seq)
{
    if (tc_request_timeout(self, seq) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* The request's ACK: drop the pending entry and its timeout, and take
 * an RTT sample unless the packet was a retransmission (Karn). */
static int
tc_request_ack(TransportCoreObject *self, PyObject *pkt)
{
    if (require_packet(pkt) < 0
        || tc_require(self->pending_requests, "_pending_requests") < 0)
        return -1;
    PyObject *ack_seq = PyLong_FromLongLong(PKT(pkt)->ack_seq);
    if (ack_seq == NULL)
        return -1;
    PyObject *pending = map_pop(self->pending_requests, ack_seq, Py_None);
    Py_DECREF(ack_seq);
    if (pending == NULL)
        return -1;
    if (pending == Py_None) {
        Py_DECREF(pending);
        return 0;
    }
    PyObject *timeout = NULL, *packet = NULL, *rtt = NULL, *sample = NULL;
    double now;
    int rc = -1;
    timeout = slot_get(&PendingRequest, pending, PR_TIMEOUT);
    if (timeout == NULL || cancel_event(timeout) < 0)
        goto done;
    packet = slot_get(&PendingRequest, pending, PR_PACKET);
    if (packet == NULL || require_packet(packet) < 0)
        goto done;
    if (PKT(packet)->retransmission) {
        rc = 0;
        goto done;
    }
    rtt = tc_get(self->rtt, "rtt");
    if (rtt == NULL || tc_now(self, &now) < 0
        || (sample = PyFloat_FromDouble(now - PKT(packet)->sent_at)) == NULL)
        goto done;
    rc = rtt_sample_native(rtt, sample);
    if (rc == 0)
        rc = call_method1(rtt, str_on_sample, sample, 0);
    else if (rc > 0)
        rc = 0;
done:
    Py_DECREF(pending);
    Py_XDECREF(timeout);
    Py_XDECREF(packet);
    Py_XDECREF(rtt);
    Py_XDECREF(sample);
    return rc;
}

static PyObject *
tcm_request_ack(TransportCoreObject *self, PyObject *pkt)
{
    if (tc_request_ack(self, pkt) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
request_ack(TransportCoreObject *self, PyObject *pkt)
{
    return dispatch(self, HOOK_REQUEST_ACK, tc_request_ack, pkt);
}

static int
tc_enqueue(TransportCoreObject *self, PyObject *sstream)
{
    PyObject *stream_id = slot_get(&ServerStream, sstream, SS_STREAM_ID);
    PyObject *queue = stream_id == NULL ? NULL
        : tc_get(self->send_queue, "_send_queue");
    int queued = queue == NULL ? -1 : PySequence_Contains(queue, stream_id);
    int rc = queued < 0 ? -1 : 0;
    if (queued == 0)
        rc = call_method1(queue, str_append, stream_id, 0);
    Py_XDECREF(stream_id);
    Py_XDECREF(queue);
    if (rc < 0)
        return -1;
    return tc_try_send(self) < 0 ? -1 : 0;
}

static PyObject *
tcm_enqueue(TransportCoreObject *self, PyObject *sstream)
{
    if (tc_enqueue(self, sstream) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
enqueue_response(TransportCoreObject *self, PyObject *sstream)
{
    return dispatch(self, HOOK_ENQUEUE, tc_enqueue, sstream);
}

/* sstream.request_complete: in place on an exact _ServerStream. */
static int
request_complete(PyObject *sstream)
{
    if (!Py_IS_TYPE(sstream, ServerStream.type))
        return attr_true(sstream, str_request_complete);
    PyObject *total = SLOT(sstream, ServerStream.offsets[SS_REQUEST_TOTAL]);
    PyObject *received = SLOT(sstream, ServerStream.offsets[SS_REQUEST_RECEIVED]);
    if (total == NULL || received == NULL) {
        PyErr_SetString(PyExc_AttributeError, "_ServerStream field unset");
        return -1;
    }
    if (total == Py_None)
        return 0;
    return PyObject_RichCompareBool(received, total, Py_GE);
}

/* A request chunk reached the server: count its bytes once, and when
 * the request is whole queue the response, after the think time. */
static int
tc_absorb(TransportCoreObject *self, PyObject *chunk)
{
    PyObject *stream_id = NULL, *sstream = NULL, *offset = NULL,
        *offsets = NULL, *size = NULL, *received = NULL, *fin = NULL,
        *end = NULL, *think = NULL, *event = NULL;
    int rc = -1;
    stream_id = chunk_get(chunk, CH_STREAM_ID, str_stream_id);
    if (stream_id == NULL
        || tc_require(self->server_streams, "_server_streams") < 0
        || (sstream = map_get(self->server_streams, stream_id, Py_None)) == NULL)
        goto done;
    if (sstream == Py_None) {  /* unknown stream */
        rc = 0;
        goto done;
    }
    offset = chunk_get(chunk, CH_OFFSET, str_offset);
    offsets = offset == NULL ? NULL
        : slot_get(&ServerStream, sstream, SS_REQUEST_OFFSETS);
    int seen = offsets == NULL ? -1 : PySequence_Contains(offsets, offset);
    if (seen != 0) {  /* duplicate delivery */
        rc = seen < 0 ? -1 : 0;
        goto done;
    }
    if (PySet_CheckExact(offsets) ? PySet_Add(offsets, offset) < 0
        : call_method1(offsets, str_add, offset, 0) < 0)
        goto done;
    size = chunk_get(chunk, CH_SIZE, str_size);
    received = size == NULL ? NULL
        : slot_get(&ServerStream, sstream, SS_REQUEST_RECEIVED);
    if (received == NULL
        || slot_set_new(&ServerStream, sstream, SS_REQUEST_RECEIVED,
                        PyNumber_InPlaceAdd(received, size)) < 0
        || (fin = chunk_get(chunk, CH_FIN, str_fin)) == NULL)
        goto done;
    int last = PyObject_IsTrue(fin);
    if (last < 0)
        goto done;
    if (last) {
        /* chunk.end */
        end = Py_IS_TYPE(chunk, ChunkType) ? PyNumber_Add(offset, size)
            : PyObject_GetAttr(chunk, str_end);
        if (end == NULL
            || slot_set(&ServerStream, sstream, SS_REQUEST_TOTAL, end) < 0)
            goto done;
    }
    int complete = request_complete(sstream);
    if (complete <= 0) {
        rc = complete;
        goto done;
    }
    PyObject *queued_obj = slot_get(&ServerStream, sstream, SS_RESPONSE_QUEUED);
    int queued = queued_obj == NULL ? -1 : PyObject_IsTrue(queued_obj);
    Py_XDECREF(queued_obj);
    if (queued != 0) {
        rc = queued < 0 ? -1 : 0;
        goto done;
    }
    if (slot_set(&ServerStream, sstream, SS_RESPONSE_QUEUED, Py_True) < 0
        || (think = slot_get(&ServerStream, sstream, SS_THINK_MS)) == NULL)
        goto done;
    int later = PyObject_RichCompareBool(think, int_zero, Py_GT);
    if (later < 0)
        goto done;
    if (later) {
        double think_v;
        if (as_double(think, &think_v) < 0
            || (event = loop_call_later(self, think_v, FireEnqueue, sstream)) == NULL)
            goto done;
        rc = 0;
    }
    else {
        rc = enqueue_response(self, sstream);
    }
done:
    Py_XDECREF(stream_id);
    Py_XDECREF(sstream);
    Py_XDECREF(offset);
    Py_XDECREF(offsets);
    Py_XDECREF(size);
    Py_XDECREF(received);
    Py_XDECREF(fin);
    Py_XDECREF(end);
    Py_XDECREF(think);
    Py_XDECREF(event);
    return rc;
}

static PyObject *
tcm_absorb(TransportCoreObject *self, PyObject *chunk)
{
    if (tc_absorb(self, chunk) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static int
absorb_request_chunk(TransportCoreObject *self, PyObject *chunk)
{
    return dispatch(self, HOOK_ABSORB, tc_absorb, chunk);
}

/* The request timeout's and the think time's event callbacks. */
static PyObject *
ckernel_fire_request_timeout(PyObject *module, PyObject *const *args,
                             Py_ssize_t nargs)
{
    TransportCoreObject *self = nargs == 2 ? fired_connection(args[0]) : NULL;
    if (self == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_fire_request_timeout(conn, seq)");
        return NULL;
    }
    if (dispatch(self, HOOK_REQUEST_TIMEOUT, tc_request_timeout, args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

static PyObject *
ckernel_fire_enqueue(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    TransportCoreObject *self = nargs == 2 ? fired_connection(args[0]) : NULL;
    if (self == NULL) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "_fire_enqueue(conn, sstream)");
        return NULL;
    }
    if (enqueue_response(self, args[1]) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* Whether the core runs obj's per-ACK arithmetic itself. */
static PyObject *
ckernel_native_model(PyObject *module, PyObject *obj)
{
    return PyBool_FromLong(Py_IS_TYPE(obj, Rtt.type) || native_cc(obj) != NULL);
}

static PyObject *
tc_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    if (PendingRequest.type == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "TransportCore needs _install_transport first");
        return NULL;
    }
    /* tp_alloc zero-fills: no objects, zero scalars, no deadlines. */
    TransportCoreObject *self = (TransportCoreObject *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->inflight = (InflightObject *)InflightType.tp_alloc(&InflightType, 0);
    if (self->inflight == NULL) {
        Py_DECREF(self);
        return NULL;
    }
    return (PyObject *)self;
}

#define TC_OBJECTS(X) \
    X(loop) X(path) X(config) X(cc) X(rtt) X(stats) X(tracer) X(check) \
    X(sampler) X(rate_sampler) X(streams) X(fast_path_enabled) \
    X(inflight) X(send_queue) X(retx_queue) X(server_streams) \
    X(ack_pending) X(next_pkt_seq) X(largest_sent) X(conn_send_offset) \
    X(delivered_bytes) X(first_data_sent_at) X(cached_config) \
    X(rcv_next) X(reorder_buffer) X(stall_started_at) X(stream_rcv_next) \
    X(stream_buffers) X(stream_stall_started) X(pto_event) X(ack_event) \
    X(hs_event) X(next_stream_id) X(req_seq) X(pending_requests) \
    X(server_think_ms) X(client_receiver) X(server_receiver) \
    X(send_path) X(send_client) X(send_server)

static int
tc_traverse(TransportCoreObject *self, visitproc visit, void *arg)
{
#define TC_VISIT(name) Py_VISIT(self->name);
    TC_OBJECTS(TC_VISIT)
#undef TC_VISIT
    return 0;
}

static int
tc_clear_gc(TransportCoreObject *self)
{
#define TC_CLEAR(name) Py_CLEAR(self->name);
    TC_OBJECTS(TC_CLEAR)
#undef TC_CLEAR
    return 0;
}

static void
tc_dealloc(TransportCoreObject *self)
{
    PyObject_GC_UnTrack(self);
    tc_clear_gc(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef tc_methods[] = {
    {"_server_on_packet", (PyCFunction)tcm_server_on_packet, METH_O,
     "Server side: an ACK or a request data packet arrived."},
    {"_server_on_ack", (PyCFunction)tcm_server_on_ack, METH_O,
     "Server side: process one ACK (CC, RTT, loss detection, send)."},
    {"_detect_losses", (PyCFunction)tcm_detect_losses, METH_NOARGS,
     "Packet-threshold loss detection (RFC 9002 §6.1.1)."},
    {"_try_send", (PyCFunction)tcm_try_send, METH_NOARGS,
     "Transmit as much as the window allows; True if a packet went out."},
    {"_send_data_packet", (PyCFunction)(void (*)(void))tcm_send_data_packet,
     METH_FASTCALL, "Send one data packet (the caller arms the PTO)."},
    {"_arm_pto", (PyCFunction)tcm_arm_pto, METH_NOARGS,
     "Arm the probe timeout from the RTO, max_ack_delay and backoff."},
    {"_on_pto", (PyCFunction)tcm_on_pto, METH_NOARGS,
     "Probe timeout: declare the oldest packet lost and retransmit."},
    {"_client_on_packet_from_server", (PyCFunction)tcm_client_on_packet,
     METH_O, "Client side: a request ACK or a response data packet."},
    {"_flush_acks", (PyCFunction)tc_flush_acks, METH_NOARGS,
     "Send one ACK covering every pending data-packet number."},
    {"_deliver_chunk", (PyCFunction)tcm_deliver_chunk, METH_O,
     "Hand in-order stream bytes to the application layer."},
    {"_tcp_on_data_packet_received", (PyCFunction)tcm_tcp_receive, METH_O,
     "TCP receiver: release bytes in connection order (HoL blocking)."},
    {"_tcp_release_packet", (PyCFunction)tcm_tcp_release, METH_O,
     "TCP receiver: advance _rcv_next and hand the packet's chunks over."},
    {"_quic_on_data_packet_received", (PyCFunction)tcm_quic_receive, METH_O,
     "QUIC receiver: each chunk to its stream's reassembly."},
    {"_quic_receive_stream_chunk", (PyCFunction)tcm_quic_chunk, METH_O,
     "QUIC receiver: reassemble one stream (no cross-stream HoL)."},
    {"_start_handshake_deadline", (PyCFunction)tcm_start_handshake_deadline,
     METH_O, "(Re-)arm the handshake flight's retransmission deadline."},
    {"_stop_handshake_deadline", (PyCFunction)tcm_stop_handshake_deadline,
     METH_NOARGS, "Disarm the handshake deadline."},
    {"_stop_deadlines", (PyCFunction)tcm_stop_deadlines, METH_NOARGS,
     "Connection teardown: disarm the PTO, delayed-ACK and handshake\n"
     "deadlines and drop the cached packet receivers."},
    {"request", (PyCFunction)(void (*)(void))tcm_request,
     METH_VARARGS | METH_KEYWORDS,
     "request($self, /, request_bytes, response_bytes, think_ms=None,\n"
     "        on_first_byte=None, on_complete=None, weight=1)\n--\n\n"
     "Issue one request; returns the client-side stream handle.\n\n"
     "``think_ms`` overrides the connection-level server think time for\n"
     "this request (used to model cache hits vs origin fetches).\n"
     "``weight`` is the stream's priority: the sender emits that many\n"
     "chunks per scheduling turn (H2 stream weights / H3 priorities)."},
    {"_send_request_packet", (PyCFunction)(void (*)(void))tcm_send_request,
     METH_VARARGS | METH_KEYWORDS,
     "Send one request packet and schedule its retransmission timeout."},
    {"_on_request_timeout", (PyCFunction)tcm_request_timeout, METH_O,
     "A request packet went unacknowledged: resend it or give up."},
    {"_client_on_request_ack", (PyCFunction)tcm_request_ack, METH_O,
     "Client side: a request packet's ACK (timeout cancelled, RTT sample)."},
    {"_server_absorb_request_chunk", (PyCFunction)tcm_absorb, METH_O,
     "Server side: reassemble a request; queue the response when whole."},
    {"_server_enqueue_response", (PyCFunction)tcm_enqueue, METH_O,
     "Server side: put a stream in the send queue and try to send."},
    {NULL}
};

static PyObject *
tc_get_inflight(TransportCoreObject *self, void *Py_UNUSED(closure))
{
    return Py_XNewRef((PyObject *)tc_inflight(self));
}

/* `conn._inflight = mapping` reloads the ring from mapping. */
static int
tc_set_inflight(TransportCoreObject *self, PyObject *value,
                void *Py_UNUSED(closure))
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete _inflight");
        return -1;
    }
    InflightObject *ring = tc_inflight(self);
    return ring == NULL ? -1 : inflight_load(ring, value);
}

static PyGetSetDef tc_getset[] = {
    {"can_send_requests", (getter)tc_get_can_send, NULL,
     "Requests may flow once established (or immediately for 0-RTT).", NULL},
    {"_inflight", (getter)tc_get_inflight, (setter)tc_set_inflight,
     "Data packets awaiting their ACK, by packet number (an Inflight "
     "ring); assigning a mapping reloads it.", NULL},
    {NULL}
};

#define TC_OBJECT(name, field) \
    {name, T_OBJECT_EX, offsetof(TransportCoreObject, field), 0, NULL}
#define TC_SCALAR(name, type, field) \
    {name, type, offsetof(TransportCoreObject, field), 0, NULL}

static PyMemberDef tc_members[] = {
    TC_OBJECT("loop", loop),
    TC_OBJECT("path", path),
    TC_OBJECT("config", config),
    TC_OBJECT("cc", cc),
    TC_OBJECT("rtt", rtt),
    TC_OBJECT("stats", stats),
    TC_OBJECT("tracer", tracer),
    TC_OBJECT("check", check),
    TC_OBJECT("sampler", sampler),
    TC_OBJECT("_rate_sampler", rate_sampler),
    TC_OBJECT("streams", streams),
    TC_OBJECT("_fast_path_enabled", fast_path_enabled),
    TC_OBJECT("_send_queue", send_queue),
    TC_OBJECT("_retx_queue", retx_queue),
    TC_OBJECT("_server_streams", server_streams),
    TC_OBJECT("_ack_pending", ack_pending),
    TC_OBJECT("_next_pkt_seq", next_pkt_seq),
    TC_OBJECT("_largest_sent", largest_sent),
    TC_OBJECT("_conn_send_offset", conn_send_offset),
    TC_OBJECT("_delivered_bytes", delivered_bytes),
    TC_OBJECT("_first_data_sent_at", first_data_sent_at),
    TC_OBJECT("_rcv_next", rcv_next),
    TC_OBJECT("_reorder_buffer", reorder_buffer),
    TC_OBJECT("_stall_started_at", stall_started_at),
    TC_OBJECT("_stream_rcv_next", stream_rcv_next),
    TC_OBJECT("_stream_buffers", stream_buffers),
    TC_OBJECT("_stream_stall_started", stream_stall_started),
    TC_OBJECT("_next_stream_id", next_stream_id),
    TC_OBJECT("_req_seq", req_seq),
    TC_OBJECT("_pending_requests", pending_requests),
    TC_OBJECT("server_think_ms", server_think_ms),
    TC_SCALAR("_largest_acked", T_LONGLONG, largest_acked),
    TC_SCALAR("_bytes_in_flight", T_LONGLONG, bytes_in_flight),
    TC_SCALAR("_recovery_until_seq", T_LONGLONG, recovery_until_seq),
    TC_SCALAR("_pto_backoff", T_LONGLONG, pto_backoff),
    TC_SCALAR("_ack_largest_received", T_LONGLONG, ack_largest_received),
    TC_SCALAR("_ack_last_recv_at", T_DOUBLE, ack_last_recv_at),
    {NULL}
};

static PyTypeObject TransportCoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.events._ckernel.TransportCore",
    .tp_basicsize = sizeof(TransportCoreObject),
    .tp_dealloc = (destructor)tc_dealloc,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "C core of repro.transport.base.BaseConnection: the request "
              "exchange, the send burst, ACK processing with congestion "
              "control and RTT estimation, loss detection, the PTO, "
              "delayed-ACK and handshake deadlines, packet construction "
              "and the TCP/QUIC reassembly.",
    .tp_traverse = (traverseproc)tc_traverse,
    .tp_clear = (inquiry)tc_clear_gc,
    .tp_methods = tc_methods,
    .tp_members = tc_members,
    .tp_getset = tc_getset,
    .tp_new = tc_new,
};

static PyObject *
ckernel_install_transport(PyObject *module, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {
        "ConnectionStats", "ServerStream", "ClientStream", "fastpath",
        "deliver_chunk", "RttEstimator", "NewRenoController",
        "CubicController", "PendingRequest", "TransportError", NULL};
    PyObject *stats, *server_stream, *client_stream, *fastpath, *deliver, *rtt,
        *newreno, *cubic, *pending, *error;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "$OOOOOOOOOO:_install_transport", kwlist,
            &stats, &server_stream, &client_stream, &fastpath, &deliver, &rtt,
            &newreno, &cubic, &pending, &error))
        return NULL;
    if (ChunkType == NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "TransportCore needs _install_packet first");
        return NULL;
    }
    if (!PyExceptionClass_Check(error)) {
        PyErr_SetString(PyExc_TypeError, "TransportError must be an exception class");
        return NULL;
    }
    /* PendingRequest last: TransportCore instances need it (tc_new). */
    if (resolve_slots(&Stats, stats) < 0
        || resolve_all_slots(&ServerStream, server_stream) < 0
        || resolve_all_slots(&ClientStream, client_stream) < 0
        || resolve_slots(&Rtt, rtt) < 0
        || resolve_slots(&NewReno, newreno) < 0
        || resolve_slots(&Cubic, cubic) < 0
        || resolve_all_slots(&PendingRequest, pending) < 0)
        return NULL;
    PyObject *objects[] = {fastpath, deliver, error};
    PyObject **targets[] = {&FastpathModule, &PyDeliverChunk, &TransportError};
    for (size_t i = 0; i < sizeof(objects) / sizeof(objects[0]); i++) {
        Py_INCREF(objects[i]);
        Py_XSETREF(*targets[i], objects[i]);
    }
    Py_RETURN_NONE;
}

/* The dataclass Packet stands for: its field table goes on the native
 * type, so dataclasses.fields and dataclasses.replace work on it, its
 * __eq__ and __repr__ are the native type's, and StreamChunk,
 * PacketKind and HEADER_BYTES are what it builds with. */
static PyObject *
ckernel_install_packet(PyObject *module, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"Packet", "StreamChunk", "PacketKind",
                             "header_bytes", NULL};
    PyObject *dataclass, *chunk, *kinds;
    long long header_bytes;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "$OOOL:_install_packet", kwlist,
                                     &dataclass, &chunk, &kinds, &header_bytes))
        return NULL;
    if (!PyType_Check(chunk)
        || !PyType_IsSubtype((PyTypeObject *)chunk, &PyTuple_Type)) {
        PyErr_SetString(PyExc_TypeError, "StreamChunk must be a tuple type");
        return NULL;
    }
    PyObject *data = PyObject_GetAttrString(kinds, "DATA");
    PyObject *ack = data == NULL ? NULL : PyObject_GetAttrString(kinds, "ACK");
    PyObject *eq = ack == NULL ? NULL : PyObject_GetAttrString(dataclass, "__eq__");
    PyObject *repr = eq == NULL ? NULL : PyObject_GetAttrString(dataclass, "__repr__");
    if (repr == NULL) {
        Py_XDECREF(data);
        Py_XDECREF(ack);
        Py_XDECREF(eq);
        return NULL;
    }
    static const char *copied[] = {"__dataclass_fields__", "__dataclass_params__",
                                   "__match_args__"};
    for (size_t i = 0; i < sizeof(copied) / sizeof(copied[0]); i++) {
        PyObject *value = PyObject_GetAttrString(dataclass, copied[i]);
        int rc = value == NULL ? -1
            : PyDict_SetItemString(PacketType.tp_dict, copied[i], value);
        Py_XDECREF(value);
        if (rc < 0) {
            Py_DECREF(data);
            Py_DECREF(ack);
            Py_DECREF(eq);
            Py_DECREF(repr);
            return NULL;
        }
    }
    PyType_Modified(&PacketType);
    Py_XSETREF(KindData, data);
    Py_XSETREF(KindAck, ack);
    Py_XSETREF(PacketEq, eq);
    Py_XSETREF(PacketRepr, repr);
    HeaderBytes = header_bytes;
    Py_INCREF(chunk);
    Py_XSETREF(ChunkType, (PyTypeObject *)chunk);
    Py_RETURN_NONE;
}

/* (built, reused): packets built since the last reset, and how many of
 * them came off the freelist.  reset=True empties the freelist and
 * starts both counts again. */
static PyObject *
ckernel_packet_stats(PyObject *module, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"reset", NULL};
    int reset = 0;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|$p:_packet_stats", kwlist,
                                     &reset))
        return NULL;
    PyObject *counts = Py_BuildValue("(LL)", pkt_built, pkt_reused);
    if (counts != NULL && reset) {
        packet_freelist_clear();
        pkt_built = pkt_reused = 0;
    }
    return counts;
}

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static PyObject *
ckernel_install(PyObject *module, PyObject *exc)
{
    Py_INCREF(exc);
    Py_XSETREF(SimulationError, exc);
    Py_RETURN_NONE;
}

static PyObject *
ckernel_install_link(PyObject *module, PyObject *args)
{
    PyObject *no_loss, *bernoulli;
    if (!PyArg_ParseTuple(args, "OO:_install_link", &no_loss, &bernoulli))
        return NULL;
    Py_INCREF(no_loss);
    Py_XSETREF(NoLossType, no_loss);
    Py_INCREF(bernoulli);
    Py_XSETREF(BernoulliLossType, bernoulli);
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"_install", ckernel_install, METH_O,
     "Install the SimulationError class raised by the schedulers."},
    {"_install_link", ckernel_install_link, METH_VARARGS,
     "Install the NoLoss class, whose draw LinkCore skips, and the "
     "BernoulliLoss class, whose draw LinkCore makes itself."},
    {"_relay_later", (PyCFunction)(void (*)(void))ckernel_relay_later,
     METH_FASTCALL,
     "A relayed packet's arrival on a hop with a forward delay."},
    {"_install_transport", (PyCFunction)(void (*)(void))ckernel_install_transport,
     METH_VARARGS | METH_KEYWORDS,
     "Install the classes and objects TransportCore builds and calls."},
    {"_install_packet", (PyCFunction)(void (*)(void))ckernel_install_packet,
     METH_VARARGS | METH_KEYWORDS,
     "Install the Packet dataclass's field table, StreamChunk, PacketKind "
     "and HEADER_BYTES for the native Packet."},
    {"_packet_stats", (PyCFunction)(void (*)(void))ckernel_packet_stats,
     METH_VARARGS | METH_KEYWORDS,
     "(built, reused): packets built, and taken from the freelist, since "
     "the last _packet_stats(reset=True)."},
    {"_fire_pto", ckernel_fire_pto, METH_O,
     "The PTO deadline's event callback."},
    {"_fire_ack", ckernel_fire_ack, METH_O,
     "The delayed-ACK deadline's event callback."},
    {"_fire_handshake", ckernel_fire_handshake, METH_O,
     "The handshake deadline's event callback."},
    {"_fire_request_timeout",
     (PyCFunction)(void (*)(void))ckernel_fire_request_timeout, METH_FASTCALL,
     "A request packet's retransmission timeout: conn, packet number."},
    {"_fire_enqueue", (PyCFunction)(void (*)(void))ckernel_fire_enqueue,
     METH_FASTCALL,
     "A request's think time is over: conn, server stream."},
    {"_native_model", ckernel_native_model, METH_O,
     "Whether TransportCore runs this RTT estimator's or congestion "
     "controller's per-ACK arithmetic itself (exact RttEstimator, "
     "NewRenoController and CubicController instances)."},
    {NULL}
};

static int
intern_names(void)
{
    struct { PyObject **slot; const char *name; } names[] = {
        {&str_now, "now"},
        {&str_size_bytes, "size_bytes"},
        {&str_should_drop, "should_drop"},
        {&str_uniform, "uniform"},
        {&str_on_transmit, "on_transmit"},
        {&str_call_at, "call_at"},
        {&str_random, "random"},
        {&str_loss_rate, "loss_rate"},
        {&str_visit_started_at, "_visit_started_at"},
        {&str_sent_packets, "sent_packets"},
        {&str_dropped_packets, "dropped_packets"},
        {&str_delivered_packets, "delivered_packets"},
        {&str_sent_bytes, "sent_bytes"},
        {&str_delivered_bytes, "delivered_bytes"},
        {&str_busy_time_ms, "busy_time_ms"},
        {&str_cancel, "cancel"},
        {&str_call_later, "call_later"},
        {&str_popleft, "popleft"},
        {&str_append, "append"},
        {&str_rotate, "rotate"},
        {&str_remove, "remove"},
        {&str_get, "get"},
        {&str_advance, "advance"},
        {&str_send_to_client, "send_to_client"},
        {&str_send_to_server, "send_to_server"},
        {&str_client_on_packet, "_client_on_packet_from_server"},
        {&str_server_on_packet, "_server_on_packet"},
        {&str_on_data_packet_received, "_on_data_packet_received"},
        {&str_absorb_request_chunk, "_server_absorb_request_chunk"},
        {&str_on_request_ack, "_client_on_request_ack"},
        {&str_trace_metrics, "_trace_metrics"},
        {&str_on_ack, "on_ack"},
        {&str_on_loss, "on_loss"},
        {&str_on_rto, "on_rto"},
        {&str_on_sample, "on_sample"},
        {&str_cwnd_bytes, "cwnd_bytes"},
        {&str_packet_sent, "packet_sent"},
        {&str_packet_received, "packet_received"},
        {&str_packet_acked, "packet_acked"},
        {&str_packet_lost, "packet_lost"},
        {&str_event, "event"},
        {&str_s2c, "s2c"},
        {&str_packet_threshold, "packet_threshold"},
        {&str_pto, "pto"},
        {&str_pto_fired, "recovery:pto_fired"},
        {&str_stream_closed, "http:stream_closed"},
        {&str_stream_id, "stream_id"},
        {&str_offset, "offset"},
        {&str_pop, "pop"},
        {&str_setdefault, "setdefault"},
        {&str_deliver_chunk, "_deliver_chunk"},
        {&str_release_packet, "_release_packet"},
        {&str_receive_stream_chunk, "_receive_stream_chunk"},
        {&str_on_handshake_timeout, "_on_handshake_timeout"},
        {&str_hol_started, "transport:hol_stall_started"},
        {&str_hol_ended, "transport:hol_stall_ended"},
        {&str_alpha, "ALPHA"},
        {&str_beta, "BETA"},
        {&str_c, "C"},
        {&str_size, "size"},
        {&str_mss, "mss"},
        {&str_ack_frequency, "ack_frequency"},
        {&str_max_ack_delay_ms, "max_ack_delay_ms"},
        {&str_send_request_packet, "_send_request_packet"},
        {&str_on_request_timeout, "_on_request_timeout"},
        {&str_enqueue_response, "_server_enqueue_response"},
        {&str_can_send_requests, "can_send_requests"},
        {&str_closed, "closed"},
        {&str_established, "established"},
        {&str_zero_rtt, "zero_rtt"},
        {&str_stream_opened, "http:stream_opened"},
        {&str_c2s, "c2s"},
        {&str_add, "add"},
        {&str_end, "end"},
        {&str_request_complete, "request_complete"},
        {&str_max_request_retries, "max_request_retries"},
        {&str_name, "name"},
        {&str_protocol_name, "protocol_name"},
        {&str_on_error, "on_error"},
        {&str_close, "close"},
        {&str_fin, "fin"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        *names[i].slot = PyUnicode_InternFromString(names[i].name);
        if (*names[i].slot == NULL)
            return -1;
    }
    for (int i = 0; i < PI_COUNT; i++) {
        packet_param_names[i] = PyUnicode_InternFromString(packet_params[i]);
        if (packet_param_names[i] == NULL)
            return -1;
    }
    float_zero = PyFloat_FromDouble(0.0);
    int_zero = PyLong_FromLong(0);
    int_one = PyLong_FromLong(1);
    int_minus_one = PyLong_FromLong(-1);
    empty_tuple = PyTuple_New(0);
    kw_force = Py_BuildValue("(s)", "force");
    kw_backoff = Py_BuildValue("(s)", "backoff");
    kw_stream_closed = Py_BuildValue("(sss)", "stream_id", "first_byte_ms",
                                     "duration_ms");
    kw_blocked_from = Py_BuildValue("(s)", "blocked_from");
    kw_duration = Py_BuildValue("(s)", "duration_ms");
    kw_stream_blocked_from = Py_BuildValue("(ss)", "stream_id", "blocked_from");
    kw_stream_duration = Py_BuildValue("(ss)", "stream_id", "duration_ms");
    kw_stream_opened = Py_BuildValue("(sss)", "stream_id", "request_bytes",
                                     "response_bytes");
    if (float_zero == NULL || int_zero == NULL
        || int_one == NULL || int_minus_one == NULL || empty_tuple == NULL
        || kw_force == NULL || kw_backoff == NULL || kw_stream_closed == NULL
        || kw_blocked_from == NULL || kw_duration == NULL
        || kw_stream_blocked_from == NULL || kw_stream_duration == NULL
        || kw_stream_opened == NULL)
        return -1;
    return 0;
}

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_ckernel",
    .m_doc = "C core for the repro DES kernel.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    if (PyType_Ready(&CEventType) < 0)
        return NULL;
    if (PyType_Ready(&LoopCoreType) < 0)
        return NULL;
    if (PyType_Ready(&LinkCoreType) < 0)
        return NULL;
    if (PyType_Ready(&TransportCoreType) < 0 || PyType_Ready(&InflightType) < 0)
        return NULL;
    if (PyType_Ready(&WindowedSendType) < 0)
        return NULL;
    if (PyType_Ready(&PacketType) < 0 || PyType_Ready(&PacketIdsType) < 0)
        return NULL;
    if (intern_names() < 0)
        return NULL;
    PyObject *m = PyModule_Create(&ckernel_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&LoopCoreType);
    if (PyModule_AddObject(m, "LoopCore", (PyObject *)&LoopCoreType) < 0) {
        Py_DECREF(&LoopCoreType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&LinkCoreType);
    if (PyModule_AddObject(m, "LinkCore", (PyObject *)&LinkCoreType) < 0) {
        Py_DECREF(&LinkCoreType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&TransportCoreType);
    if (PyModule_AddObject(m, "TransportCore", (PyObject *)&TransportCoreType) < 0) {
        Py_DECREF(&TransportCoreType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&InflightType);
    if (PyModule_AddObject(m, "Inflight", (PyObject *)&InflightType) < 0) {
        Py_DECREF(&InflightType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&CEventType);
    if (PyModule_AddObject(m, "ScheduledEvent", (PyObject *)&CEventType) < 0) {
        Py_DECREF(&CEventType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&WindowedSendType);
    if (PyModule_AddObject(m, "WindowedSend", (PyObject *)&WindowedSendType) < 0) {
        Py_DECREF(&WindowedSendType);
        Py_DECREF(m);
        return NULL;
    }
    Py_INCREF(&PacketType);
    if (PyModule_AddObject(m, "Packet", (PyObject *)&PacketType) < 0) {
        Py_DECREF(&PacketType);
        Py_DECREF(m);
        return NULL;
    }
    PyObject *ids = PyType_GenericAlloc(&PacketIdsType, 0);
    if (ids == NULL || PyModule_AddObject(m, "packet_ids", ids) < 0) {
        Py_XDECREF(ids);
        Py_DECREF(m);
        return NULL;
    }
    Py_XSETREF(FirePto, PyObject_GetAttrString(m, "_fire_pto"));
    Py_XSETREF(FireAck, PyObject_GetAttrString(m, "_fire_ack"));
    Py_XSETREF(FireHandshake, PyObject_GetAttrString(m, "_fire_handshake"));
    Py_XSETREF(RelayLater, PyObject_GetAttrString(m, "_relay_later"));
    Py_XSETREF(FireRequestTimeout, PyObject_GetAttrString(m, "_fire_request_timeout"));
    Py_XSETREF(FireEnqueue, PyObject_GetAttrString(m, "_fire_enqueue"));
    if (FirePto == NULL || FireAck == NULL || FireHandshake == NULL
        || RelayLater == NULL || FireRequestTimeout == NULL
        || FireEnqueue == NULL) {
        Py_DECREF(m);
        return NULL;
    }
    /* The method descriptors the hooks are compared with; the static
     * type's dict keeps them alive. */
    PyObject *dict = TransportCoreType.tp_dict;
    DescrDeliver = PyDict_GetItemString(dict, "_deliver_chunk");
    DescrTcpReceive = PyDict_GetItemString(dict, "_tcp_on_data_packet_received");
    DescrTcpRelease = PyDict_GetItemString(dict, "_tcp_release_packet");
    DescrQuicReceive = PyDict_GetItemString(dict, "_quic_on_data_packet_received");
    DescrQuicChunk = PyDict_GetItemString(dict, "_quic_receive_stream_chunk");
    DescrSendRequest = PyDict_GetItemString(dict, "_send_request_packet");
    DescrRequestTimeout = PyDict_GetItemString(dict, "_on_request_timeout");
    DescrRequestAck = PyDict_GetItemString(dict, "_client_on_request_ack");
    DescrAbsorb = PyDict_GetItemString(dict, "_server_absorb_request_chunk");
    DescrEnqueue = PyDict_GetItemString(dict, "_server_enqueue_response");
    DescrCanSend = PyDict_GetItemString(dict, "can_send_requests");
    if (DescrDeliver == NULL || DescrTcpReceive == NULL || DescrTcpRelease == NULL
        || DescrQuicReceive == NULL || DescrQuicChunk == NULL
        || DescrSendRequest == NULL || DescrRequestTimeout == NULL
        || DescrRequestAck == NULL || DescrAbsorb == NULL
        || DescrEnqueue == NULL || DescrCanSend == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "TransportCore methods missing");
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
