/* C core for the DES kernel: the optional accelerated scheduler.
 *
 * Compiled on demand by repro/events/_accel.py with the host
 * toolchain; when unavailable the pure-Python HeapEventLoop takes
 * over with identical semantics.  The contract both sides implement:
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
    if (t < self->now) {
        PyObject *nowf = PyFloat_FromDouble(self->now);
        if (nowf == NULL)
            return NULL;
        PyErr_Format(SimulationError,
                     "cannot schedule at %Rms, already at %Rms",
                     args[0], nowf);
        Py_DECREF(nowf);
        return NULL;
    }
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
/* Module                                                              */
/* ------------------------------------------------------------------ */

static PyObject *
ckernel_install(PyObject *module, PyObject *exc)
{
    Py_INCREF(exc);
    Py_XSETREF(SimulationError, exc);
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"_install", ckernel_install, METH_O,
     "Install the SimulationError class raised by the schedulers."},
    {NULL}
};

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
    PyObject *m = PyModule_Create(&ckernel_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&LoopCoreType);
    if (PyModule_AddObject(m, "LoopCore", (PyObject *)&LoopCoreType) < 0) {
        Py_DECREF(&LoopCoreType);
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
