/* C core for the DES kernel: the optional accelerated scheduler
 * (LoopCore) and the per-packet half of a network link (LinkCore).
 *
 * Compiled on demand by repro/events/_accel.py with the host
 * toolchain; when unavailable the pure-Python HeapEventLoop and
 * repro.netsim.link._PyLinkCore take over with identical semantics.
 * The scheduler contract both sides implement:
 *
 *   - time is a double (milliseconds); events fire in (time, seq)
 *     order, seq being a monotonically increasing tie-breaker, so
 *     same-timestamp events preserve scheduling order (FIFO).
 *   - cancellation is lazy: cancel() marks the entry dead and fixes
 *     the live count; the corpse is discarded when it surfaces.
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
#include <time.h>

/* Installed by the loader: repro.events.loop.SimulationError, so C
 * raises the exact class the Python schedulers raise. */
static PyObject *SimulationError = NULL;

typedef struct LoopCoreObject LoopCoreObject;

/* ------------------------------------------------------------------ */
/* ScheduledEvent: the cancellable handle call_later/call_at return.   */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    double time;
    long long seq;
    PyObject *callback;       /* strong */
    PyObject *args;           /* strong, tuple */
    char cancelled;
    /* Borrowed "still pending" marker: non-NULL iff the event sits in
     * its loop's heap (which then holds a strong ref to us, keeping
     * the loop alive transitively for the caller).  Cleared on pop and
     * on cancel so the live counter stays exact under double-cancels
     * and cancels of already-fired events; the loop clears it for
     * every queued event before releasing the queue. */
    LoopCoreObject *loop;
} CEventObject;

static PyTypeObject CEventType;

typedef struct { double time; long long seq; CEventObject *ev; } HeapEntry;

struct LoopCoreObject {
    PyObject_HEAD
    double now;
    long long seq;
    long long processed;
    long long live;
    /* Implicit binary min-heap ordered by (time, seq). */
    HeapEntry *heap;
    Py_ssize_t heap_len;
    Py_ssize_t heap_cap;
    PyObject *check;          /* strong, or NULL when checking is off */
    PyObject *check_require;  /* bound check.require, cached */
    PyObject *profile;        /* dict, or NULL when profiling is off */
};

static PyObject *
cevent_cancel(CEventObject *self, PyObject *Py_UNUSED(ignored))
{
    self->cancelled = 1;
    LoopCoreObject *loop = self->loop;
    if (loop != NULL) {
        self->loop = NULL;
        loop->live--;
    }
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
    Py_VISIT(self->args);
    return 0;
}

static int
cevent_clear_gc(CEventObject *self)
{
    Py_CLEAR(self->callback);
    Py_CLEAR(self->args);
    return 0;
}

static void
cevent_dealloc(CEventObject *self)
{
    PyObject_GC_UnTrack(self);
    Py_XDECREF(self->callback);
    Py_XDECREF(self->args);
    PyObject_GC_Del(self);
}

static PyObject *
cevent_get_cancelled(CEventObject *self, void *closure)
{
    return PyBool_FromLong(self->cancelled);
}

static PyMemberDef cevent_members[] = {
    {"time", T_DOUBLE, offsetof(CEventObject, time), READONLY,
     "Absolute fire time in ms."},
    {"seq", T_LONGLONG, offsetof(CEventObject, seq), READONLY,
     "FIFO tie-breaker."},
    {"callback", T_OBJECT_EX, offsetof(CEventObject, callback), READONLY, NULL},
    {"args", T_OBJECT_EX, offsetof(CEventObject, args), READONLY, NULL},
    {NULL}
};

static PyGetSetDef cevent_getset[] = {
    {"cancelled", (getter)cevent_get_cancelled, NULL,
     "Whether cancel() was called.", NULL},
    {NULL}
};

static PyMethodDef cevent_methods[] = {
    {"cancel", (PyCFunction)cevent_cancel, METH_NOARGS,
     "Mark the event dead; it will be skipped when popped."},
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
entry_less(double at, long long aseq, double bt, long long bseq)
{
    if (at != bt)
        return at < bt;
    return aseq < bseq;
}

static int
heap_push(LoopCoreObject *self, double t, long long seq, CEventObject *ev)
{
    if (self->heap_len == self->heap_cap) {
        Py_ssize_t cap = self->heap_cap ? self->heap_cap * 2 : 64;
        HeapEntry *mem = PyMem_Realloc(self->heap, cap * sizeof(HeapEntry));
        if (mem == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->heap = mem;
        self->heap_cap = cap;
    }
    HeapEntry *h = self->heap;
    Py_ssize_t i = self->heap_len++;
    while (i > 0) {
        Py_ssize_t parent = (i - 1) >> 1;
        if (!entry_less(t, seq, h[parent].time, h[parent].seq))
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i].time = t;
    h[i].seq = seq;
    h[i].ev = ev;
    return 0;
}

/* Pop the root.  Caller owns the returned entry's ev reference. */
static HeapEntry
heap_pop(LoopCoreObject *self)
{
    HeapEntry *h = self->heap;
    HeapEntry top = h[0];
    Py_ssize_t n = --self->heap_len;
    if (n > 0) {
        HeapEntry last = h[n];
        Py_ssize_t i = 0;
        for (;;) {
            Py_ssize_t child = 2 * i + 1;
            if (child >= n)
                break;
            if (child + 1 < n &&
                entry_less(h[child + 1].time, h[child + 1].seq,
                           h[child].time, h[child].seq))
                child++;
            if (!entry_less(h[child].time, h[child].seq, last.time, last.seq))
                break;
            h[i] = h[child];
            i = child;
        }
        h[i] = last;
    }
    return top;
}

/* Discard cancelled entries at the root; returns the live head
 * (borrowed) or NULL when the queue is empty. */
static CEventObject *
peek_live(LoopCoreObject *self)
{
    while (self->heap_len) {
        HeapEntry *h = self->heap;
        if (!h[0].ev->cancelled)
            return h[0].ev;
        HeapEntry dead = heap_pop(self);
        dead.ev->loop = NULL;  /* already NULL: cancel() clears it */
        Py_DECREF(dead.ev);
    }
    return NULL;
}

/* ------------------------------------------------------------------ */
/* LoopCore                                                            */
/* ------------------------------------------------------------------ */

static void
core_release_queue(LoopCoreObject *self)
{
    /* NULL every queued event's loop pointer before dropping the
     * references: handles that escaped to Python must never touch a
     * dead loop through cancel(). */
    HeapEntry *h = self->heap;
    Py_ssize_t n = self->heap_len;
    self->heap_len = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        h[i].ev->loop = NULL;
        Py_DECREF(h[i].ev);
    }
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
    self->live = 0;
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
    core_release_queue(self);
    Py_CLEAR(self->check);
    Py_CLEAR(self->check_require);
    Py_CLEAR(self->profile);
    return 0;
}

static void
core_dealloc(LoopCoreObject *self)
{
    PyObject_GC_UnTrack(self);
    core_release_queue(self);
    PyMem_Free(self->heap);
    Py_XDECREF(self->check);
    Py_XDECREF(self->check_require);
    Py_XDECREF(self->profile);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
schedule(LoopCoreObject *self, double t, PyObject *callback,
         PyObject *const *extra, Py_ssize_t n_extra)
{
    PyObject *args = PyTuple_New(n_extra);
    if (args == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n_extra; i++) {
        Py_INCREF(extra[i]);
        PyTuple_SET_ITEM(args, i, extra[i]);
    }
    CEventObject *ev = PyObject_GC_New(CEventObject, &CEventType);
    if (ev == NULL) {
        Py_DECREF(args);
        return NULL;
    }
    long long seq = ++self->seq;
    ev->time = t;
    ev->seq = seq;
    Py_INCREF(callback);
    ev->callback = callback;
    ev->args = args;
    ev->cancelled = 0;
    ev->loop = self;
    PyObject_GC_Track((PyObject *)ev);
    Py_INCREF(ev);  /* the heap's reference */
    if (heap_push(self, t, seq, ev) < 0) {
        self->seq--;
        ev->loop = NULL;
        Py_DECREF(ev);
        Py_DECREF(ev);
        return NULL;
    }
    self->live++;
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
    PyObject *res;
    if (self->profile == NULL) {
        if (PyTuple_GET_SIZE(ev->args) == 0)
            res = PyObject_CallNoArgs(ev->callback);
        else
            res = PyObject_CallObject(ev->callback, ev->args);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
        return 0;
    }
    /* Profiled dispatch: attribute wall-clock to the callback name. */
    struct timespec t0, t1;
    clock_gettime(CLOCK_MONOTONIC, &t0);
    res = PyObject_CallObject(ev->callback, ev->args);
    clock_gettime(CLOCK_MONOTONIC, &t1);
    if (res == NULL)
        return -1;
    Py_DECREF(res);
    double elapsed = (double)(t1.tv_sec - t0.tv_sec)
                     + (double)(t1.tv_nsec - t0.tv_nsec) * 1e-9;
    PyObject *key = PyObject_GetAttrString(ev->callback, "__qualname__");
    if (key == NULL) {
        PyErr_Clear();
        key = PyObject_Repr(ev->callback);
    }
    else if (!PyObject_IsTrue(key)) {
        Py_DECREF(key);
        key = PyObject_Repr(ev->callback);
    }
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
        CEventObject *head = peek_live(self);
        if (head == NULL)
            Py_RETURN_NONE;
        if (until_set && head->time > until) {
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
        e.ev->loop = NULL;
        self->live--;
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
    if (peek_live(self) == NULL)
        Py_RETURN_FALSE;
    HeapEntry e = heap_pop(self);
    e.ev->loop = NULL;
    self->live--;
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
        if (peek_live(self) == NULL)
            Py_RETURN_NONE;
        HeapEntry e = heap_pop(self);
        e.ev->loop = NULL;
        self->live--;
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

static PyObject *
core_next_event_time(LoopCoreObject *self, PyObject *Py_UNUSED(ignored))
{
    CEventObject *head = peek_live(self);
    if (head == NULL)
        Py_RETURN_NONE;
    return PyFloat_FromDouble(head->time);
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
    return (Py_ssize_t)self->live;
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
/* LinkCore: the per-packet half of repro.netsim.link.Link             */
/* ------------------------------------------------------------------ */

/* The arithmetic below is repro.netsim.link._PyLinkCore's, expression
 * for expression and in the same order (the module is built with
 * -ffp-contract=off so no a*b+c is fused), and the Python hooks run in
 * the same order with the same arguments: both cores give the same
 * doubles, the same RNG draws and the same (time, seq) schedule. */

/* Installed by repro.netsim.link: the NoLoss class, whose should_drop
 * draws nothing and is therefore never called. */
static PyObject *NoLossType = NULL;

/* Interned attribute names, made once at module init. */
static PyObject *str_now, *str_size_bytes, *str_should_drop, *str_uniform,
    *str_on_transmit, *str_call_at;
static PyObject *str_sent_packets, *str_dropped_packets,
    *str_delivered_packets, *str_sent_bytes, *str_delivered_bytes,
    *str_busy_time_ms;
static PyObject *float_zero;

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
    PyObject *size_obj = PyObject_GetAttr(packet, str_size_bytes);
    if (size_obj == NULL)
        return NULL;
    long long size = PyLong_AsLongLong(size_obj);
    if (size == -1 && PyErr_Occurred()) {
        Py_DECREF(size_obj);
        return NULL;
    }
    self->sent_packets++;
    self->sent_bytes += size;
    double tx_done = link_serialize(self, now, size);

    PyObject *sampler = self->sampler;
    if (sampler != NULL && sampler != Py_None) {
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
    Py_DECREF(size_obj);

    /* The loss draw, then the drop filter (called even when the draw
     * already dropped the packet, so a filtered run keeps the RNG
     * stream of an unfiltered one); NoLoss draws nothing and is
     * skipped.  Truth tests come after both calls, as in Python. */
    PyObject *loss = self->loss;
    if (link_require(loss, "loss") < 0)
        return NULL;
    PyObject *loss_res = NULL, *filter_res = NULL;
    if ((PyObject *)Py_TYPE(loss) != NoLossType) {
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
    int dropped = loss_res != NULL ? PyObject_IsTrue(loss_res) : 0;
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

    /* The kernel's own schedule(): call_at's seq and past-time rule
     * without a bound-method call.  Any other loop gets call_at.  The
     * loop is read again, as Python's self.loop.call_at does: the
     * hooks above ran arbitrary code. */
    loop = self->loop;
    if (link_require(loop, "loop") < 0)
        return NULL;
    PyObject *event;
    if (PyObject_TypeCheck(loop, &LoopCoreType)) {
        LoopCoreObject *core = (LoopCoreObject *)loop;
        if (deliver_at < core->now) {
            PyObject *at = PyFloat_FromDouble(deliver_at);
            if (at == NULL)
                return NULL;
            raise_past(core, at);
            Py_DECREF(at);
            return NULL;
        }
        event = schedule(core, deliver_at, on_deliver, &packet, 1);
    }
    else {
        PyObject *at = PyFloat_FromDouble(deliver_at);
        if (at == NULL)
            return NULL;
        PyObject *cargs[4] = {loop, at, on_deliver, packet};
        event = PyObject_VectorcallMethod(str_call_at, cargs, 4, NULL);
        Py_DECREF(at);
    }
    if (event == NULL)
        return NULL;
    Py_DECREF(event);
    Py_RETURN_TRUE;
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
ckernel_install_link(PyObject *module, PyObject *no_loss)
{
    Py_INCREF(no_loss);
    Py_XSETREF(NoLossType, no_loss);
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"_install", ckernel_install, METH_O,
     "Install the SimulationError class raised by the schedulers."},
    {"_install_link", ckernel_install_link, METH_O,
     "Install the NoLoss class, whose draw LinkCore skips."},
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
        {&str_sent_packets, "sent_packets"},
        {&str_dropped_packets, "dropped_packets"},
        {&str_delivered_packets, "delivered_packets"},
        {&str_sent_bytes, "sent_bytes"},
        {&str_delivered_bytes, "delivered_bytes"},
        {&str_busy_time_ms, "busy_time_ms"},
    };
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++) {
        *names[i].slot = PyUnicode_InternFromString(names[i].name);
        if (*names[i].slot == NULL)
            return -1;
    }
    float_zero = PyFloat_FromDouble(0.0);
    return float_zero == NULL ? -1 : 0;
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
    Py_INCREF(&CEventType);
    if (PyModule_AddObject(m, "ScheduledEvent", (PyObject *)&CEventType) < 0) {
        Py_DECREF(&CEventType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
