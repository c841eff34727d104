/* The CDCL solver's inner loop in C: unit propagation, backtracking and the
 * branch-variable pop.
 *
 * Each function mirrors one Python method of repro/sat/solver.py or
 * repro/sat/heap.py step for step, and those methods stay the reference:
 *
 *   propagate(solver)           CdclSolver._propagate
 *   backtrack(solver, level)    CdclSolver._backtrack, ActivityHeap.push_many
 *   pop_unassigned(heap, value) ActivityHeap.pop_unassigned
 *
 * The functions edit the solver's own lists in place (the code-indexed value
 * table, _level, _reason, _phase, _watches, _binary, _trail, _trail_limits
 * and the heap's _heap/_pos/_act), so the trail order, the clause literal
 * order, the watch-list compaction and the heap sift order come out exactly
 * as the Python methods leave them.  Every index read from a list is checked
 * against the list it indexes, so a broken solver state raises instead of
 * reading out of bounds; after an exception the solver is left as the error
 * found it.
 *
 * repro/sat/native.py builds and loads this file.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define ITEMS(list) (((PyListObject *)(list))->ob_item)
#define SIZE(list) PyList_GET_SIZE(list)

static PyObject *minus_one, *zero, *one;

/* Solver attributes fetched by propagate/backtrack, and the heap's. */
enum { TRAIL, VALUE, LEVEL, REASON, PHASE, WATCHES, BINARY, LIMITS, SOLVER_LISTS };
static const char *const solver_names[SOLVER_LISTS] = {
    "_trail", "_value", "_level", "_reason", "_phase", "_watches", "_binary", "_trail_limits",
};
enum { HEAP, POS, ACT, HEAP_LISTS };
static const char *const heap_names[HEAP_LISTS] = {"_heap", "_pos", "_act"};
static PyObject *solver_attrs[SOLVER_LISTS], *heap_attrs[HEAP_LISTS];
static PyObject *str_queue_head, *str_stats, *str_propagations, *str_heap;

/* `integer` as an index into `bound` entries; -1 with an exception otherwise. */
static inline Py_ssize_t index_of(PyObject *integer, Py_ssize_t bound)
{
    Py_ssize_t index = PyLong_AsSsize_t(integer);
    if ((size_t)index < (size_t)bound)
        return index;
    if (!PyErr_Occurred())
        PyErr_Format(PyExc_IndexError, "index %zd outside 0..%zd", index, bound - 1);
    return -1;
}

/* The value-table entry at a checked code: 1, 0 or -1; -2 with an exception. */
static inline long state_of(PyObject *value, Py_ssize_t code)
{
    long state = PyLong_AsLong(ITEMS(value)[code]);
    return state == -1 && PyErr_Occurred() ? -2 : state;
}

/* The activity of a checked variable (-1.0 with an exception if not a float). */
static inline double activity_of(PyObject *act, Py_ssize_t variable)
{
    return PyFloat_AsDouble(ITEMS(act)[variable]);
}

/* list[index] = item (a new reference is taken, the old item released). */
static inline void set_item(PyObject *list, Py_ssize_t index, PyObject *item)
{
    PyObject *old = ITEMS(list)[index];
    Py_INCREF(item);
    ITEMS(list)[index] = item;
    Py_DECREF(old);
}

/* list[index] = number, for the heap's position index. */
static inline int set_int(PyObject *list, Py_ssize_t index, Py_ssize_t number)
{
    PyObject *item = PyLong_FromSsize_t(number);
    if (item == NULL)
        return -1;
    PyObject *old = ITEMS(list)[index];
    ITEMS(list)[index] = item;
    Py_DECREF(old);
    return 0;
}

static void release(PyObject **lists, int count)
{
    for (int i = 0; i < count; i++)
        Py_DECREF(lists[i]);
}

/* out[i] = getattr(owner, names[i]) for every i, each checked to be a list. */
static int fetch(PyObject *owner, PyObject **names, PyObject **out, int count)
{
    for (int i = 0; i < count; i++) {
        out[i] = PyObject_GetAttr(owner, names[i]);
        if (out[i] != NULL && PyList_Check(out[i]))
            continue;
        if (out[i] != NULL) {
            PyErr_Format(PyExc_TypeError, "%U must be a list", names[i]);
            i++;
        }
        release(out, i);
        return -1;
    }
    return 0;
}

/* The solver's lists, checked to agree on the number of variables. */
static int fetch_solver(PyObject *solver, PyObject **lists)
{
    if (fetch(solver, solver_attrs, lists, SOLVER_LISTS) < 0)
        return -1;
    Py_ssize_t codes = SIZE(lists[VALUE]);
    if (SIZE(lists[WATCHES]) == codes && SIZE(lists[BINARY]) == codes
        && 2 * SIZE(lists[LEVEL]) == codes && 2 * SIZE(lists[REASON]) == codes
        && 2 * SIZE(lists[PHASE]) == codes)
        return 0;
    PyErr_SetString(PyExc_ValueError, "solver tables disagree on the number of variables");
    release(lists, SOLVER_LISTS);
    return -1;
}

/* The heap's lists, checked to agree on the number of variables. */
static int fetch_heap(PyObject *heap, PyObject **lists)
{
    if (fetch(heap, heap_attrs, lists, HEAP_LISTS) < 0)
        return -1;
    if (SIZE(lists[POS]) == SIZE(lists[ACT]))
        return 0;
    PyErr_SetString(PyExc_ValueError, "heap position and activity tables differ in size");
    release(lists, HEAP_LISTS);
    return -1;
}

static Py_ssize_t get_size(PyObject *owner, PyObject *name)
{
    PyObject *number = PyObject_GetAttr(owner, name);
    if (number == NULL)
        return -1;
    Py_ssize_t result = PyLong_AsSsize_t(number);
    Py_DECREF(number);
    return result;
}

static int set_size(PyObject *owner, PyObject *name, Py_ssize_t size)
{
    PyObject *number = PyLong_FromSsize_t(size);
    if (number == NULL)
        return -1;
    int status = PyObject_SetAttr(owner, name, number);
    Py_DECREF(number);
    return status;
}

static int check_args(const char *name, Py_ssize_t nargs, Py_ssize_t expected)
{
    if (nargs == expected)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", name, expected, nargs);
    return -1;
}

/* The list of _watches or _binary at a checked code; NULL with an exception. */
static PyObject *list_at(PyObject *lists, Py_ssize_t code)
{
    PyObject *list = ITEMS(lists)[code];
    if (PyList_Check(list))
        return list;
    PyErr_SetString(PyExc_TypeError, "watch and implication lists must be lists");
    return NULL;
}

/* Whether `entry` is a pair, as every watch and implication entry must be. */
static int is_pair(PyObject *entry)
{
    if (PyTuple_Check(entry) && PyTuple_GET_SIZE(entry) == 2)
        return 1;
    PyErr_SetString(PyExc_TypeError, "watch and implication entries must be pairs");
    return 0;
}

/* Assign the literal `code` (the int object `literal`) at `level` with `reason`. */
static int assign(PyObject **lists, Py_ssize_t code, PyObject *literal, PyObject *level,
                  PyObject *reason)
{
    set_item(lists[VALUE], code, one);
    set_item(lists[VALUE], code ^ 1, zero);
    Py_ssize_t variable = code >> 1;
    set_item(lists[LEVEL], variable, level);
    set_item(lists[REASON], variable, reason);
    set_item(lists[PHASE], variable, (code & 1) ? one : zero);
    return PyList_Append(lists[TRAIL], literal);
}

/* watch_list[keep] = (clause, first); `entry` already is that pair when `same`. */
static int keep_watch(PyObject *watch_list, Py_ssize_t keep, PyObject *entry, int same,
                      PyObject *clause, PyObject *first)
{
    if (same) {
        set_item(watch_list, keep, entry);
        return 0;
    }
    PyObject *fresh = PyTuple_Pack(2, clause, first);
    if (fresh == NULL)
        return -1;
    set_item(watch_list, keep, fresh);
    Py_DECREF(fresh);
    return 0;
}

/* Unit propagation over the solver's queue; returns a conflicting clause or None. */
static PyObject *propagate(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *lists[SOLVER_LISTS];
    if (check_args("propagate", nargs, 1) < 0 || fetch_solver(args[0], lists) < 0)
        return NULL;
    PyObject *trail = lists[TRAIL], *value = lists[VALUE], *watches = lists[WATCHES];
    Py_ssize_t codes = SIZE(value);
    PyObject *conflict = Py_None, *level = NULL, *stats = NULL;
    Py_ssize_t head = get_size(args[0], str_queue_head), start = head;
    if (head == -1 && PyErr_Occurred())
        goto error;
    /* Propagation never opens a decision level, so this is loop-invariant. */
    level = PyLong_FromSsize_t(SIZE(lists[LIMITS]));
    if (level == NULL)
        goto error;
    while (head < SIZE(trail)) {
        Py_ssize_t true_code = index_of(ITEMS(trail)[head], codes);
        if (true_code < 0)
            goto error;
        Py_ssize_t falsified = true_code ^ 1;
        head++;
        PyObject *implications = list_at(lists[BINARY], falsified);
        if (implications == NULL)
            goto error;
        for (Py_ssize_t i = 0; i < SIZE(implications); i++) {
            PyObject *pair = ITEMS(implications)[i];
            if (!is_pair(pair))
                goto error;
            PyObject *implied = PyTuple_GET_ITEM(pair, 0);
            Py_ssize_t implied_code = index_of(implied, codes);
            long state = implied_code < 0 ? -2 : state_of(value, implied_code);
            if (state == 1)
                continue;
            if (state == 0) {
                conflict = PyTuple_GET_ITEM(pair, 1);
                goto done;
            }
            if (state == -2
                || assign(lists, implied_code, implied, level, PyTuple_GET_ITEM(pair, 1)) < 0)
                goto error;
        }
        /* Compacted in place to watch_list[:keep].  A moved watch goes to a
         * non-falsified literal's list, so this list never grows mid-sweep. */
        PyObject *watch_list = list_at(watches, falsified);
        if (watch_list == NULL)
            goto error;
        Py_ssize_t size = SIZE(watch_list), keep = 0;
        for (Py_ssize_t i = 0; i < size; i++) {
            PyObject *entry = ITEMS(watch_list)[i];
            if (!is_pair(entry))
                goto error;
            Py_ssize_t blocker = index_of(PyTuple_GET_ITEM(entry, 1), codes);
            long state = blocker < 0 ? -2 : state_of(value, blocker);
            if (state == -2)
                goto error;
            /* Blocking literal already true: clause satisfied, keep as-is. */
            if (state == 1) {
                if (keep != i)
                    set_item(watch_list, keep, entry);
                keep++;
                continue;
            }
            PyObject *clause = PyTuple_GET_ITEM(entry, 0);
            if (!PyList_Check(clause) || SIZE(clause) < 2) {
                PyErr_SetString(PyExc_TypeError, "a watched clause must list 2+ literals");
                goto error;
            }
            PyObject **literals = ITEMS(clause);
            /* Ensure the falsified literal sits at position 1. */
            PyObject *first = literals[0];
            Py_ssize_t first_code = index_of(first, codes);
            if (first_code == falsified) {
                first = literals[1];
                first_code = index_of(first, codes);
                literals[1] = literals[0];
                literals[0] = first;
            }
            state = first_code < 0 ? -2 : state_of(value, first_code);
            if (state == -2)
                goto error;
            if (state == 1) {
                if (keep_watch(watch_list, keep, entry, blocker == first_code, clause, first) < 0)
                    goto error;
                keep++;
                continue;
            }
            /* Watch the first non-false literal past the two watches. */
            Py_ssize_t length = SIZE(clause), k = 2, alternative = -1;
            for (; k < length; k++) {
                alternative = index_of(literals[k], codes);
                long alternative_state = alternative < 0 ? -2 : state_of(value, alternative);
                if (alternative_state == -2)
                    goto error;
                if (alternative_state != 0)
                    break;
            }
            if (k < length) {
                PyObject *literal = literals[k];
                literals[k] = literals[1];
                literals[1] = literal;
                PyObject *target = list_at(watches, alternative);
                PyObject *pair = target == NULL ? NULL : PyTuple_Pack(2, clause, first);
                if (pair == NULL)
                    goto error;
                int status = PyList_Append(target, pair);
                Py_DECREF(pair);
                if (status < 0)
                    goto error;
                continue;
            }
            if (keep_watch(watch_list, keep, entry, blocker == first_code, clause, first) < 0)
                goto error;
            keep++;
            if (state == 0) {
                /* Conflict: slide the unvisited tail down and stop. */
                if (PyList_SetSlice(watch_list, keep, i + 1, NULL) < 0)
                    goto error;
                conflict = clause;
                goto done;
            }
            /* Unit: `first` is unassigned. */
            if (assign(lists, first_code, first, level, clause) < 0)
                goto error;
        }
        if (keep < size && PyList_SetSlice(watch_list, keep, size, NULL) < 0)
            goto error;
    }
done:
    /* The Python method's `finally`: store the queue head, count the work. */
    stats = PyObject_GetAttr(args[0], str_stats);
    Py_ssize_t count = stats == NULL ? -1 : get_size(stats, str_propagations);
    if ((count == -1 && PyErr_Occurred()) || set_size(args[0], str_queue_head, head) < 0
        || set_size(stats, str_propagations, count + head - start) < 0)
        goto error;
    Py_INCREF(conflict);
    goto out;
error:
    conflict = NULL;
out:
    Py_XDECREF(stats);
    Py_XDECREF(level);
    release(lists, SOLVER_LISTS);
    return conflict;
}

/* Re-insert `variable` unless it is in the heap; sift it up (push_many's step). */
static int push(PyObject **heap_lists, Py_ssize_t variable)
{
    PyObject *heap = heap_lists[HEAP], *pos = heap_lists[POS], *act = heap_lists[ACT];
    Py_ssize_t size = SIZE(act), position = PyLong_AsSsize_t(ITEMS(pos)[variable]);
    if (position == -1 && PyErr_Occurred())
        return -1;
    if (position >= 0)
        return 0;
    PyObject *entry = PyLong_FromSsize_t(variable);
    if (entry == NULL)
        return -1;
    position = SIZE(heap);
    if (PyList_Append(heap, entry) < 0)
        goto error;
    double activity = activity_of(act, variable);
    while (position > 0) {
        Py_ssize_t parent_position = (position - 1) >> 1;
        PyObject *parent = ITEMS(heap)[parent_position];
        Py_ssize_t parent_variable = index_of(parent, size);
        if (parent_variable < 0)
            goto error;
        if (activity_of(act, parent_variable) >= activity)
            break;
        set_item(heap, position, parent);
        if (set_int(pos, parent_variable, position) < 0)
            goto error;
        position = parent_position;
    }
    set_item(heap, position, entry);
    if (set_int(pos, variable, position) < 0 || PyErr_Occurred())
        goto error;
    Py_DECREF(entry);
    return 0;
error:
    Py_DECREF(entry);
    return -1;
}

/* Undo every assignment above decision level `level`; re-insert the variables. */
static PyObject *backtrack(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *lists[SOLVER_LISTS], *heap_lists[HEAP_LISTS], *heap = NULL, *result = NULL;
    if (check_args("backtrack", nargs, 2) < 0)
        return NULL;
    Py_ssize_t level = PyLong_AsSsize_t(args[1]);
    if ((level == -1 && PyErr_Occurred()) || fetch_solver(args[0], lists) < 0)
        return NULL;
    PyObject *trail = lists[TRAIL], *value = lists[VALUE], *limits = lists[LIMITS];
    if (level < 0 || SIZE(limits) <= level) {
        result = Py_None;
        Py_INCREF(result);
        goto out;
    }
    heap = PyObject_GetAttr(args[0], str_heap);
    if (heap == NULL || fetch_heap(heap, heap_lists) < 0)
        goto out;
    Py_ssize_t size = SIZE(trail), limit = index_of(ITEMS(limits)[level], size + 1);
    if (limit < 0)
        goto out_heap;
    for (Py_ssize_t i = limit; i < size; i++) {
        Py_ssize_t code = index_of(ITEMS(trail)[i], SIZE(value));
        if (code < 0)
            goto out_heap;
        set_item(value, code, minus_one);
        set_item(value, code ^ 1, minus_one);
        set_item(lists[REASON], code >> 1, Py_None);
    }
    for (Py_ssize_t i = limit; i < size; i++) {
        Py_ssize_t code = index_of(ITEMS(trail)[i], 2 * SIZE(heap_lists[ACT]));
        if (code < 0 || push(heap_lists, code >> 1) < 0)
            goto out_heap;
    }
    if (PyList_SetSlice(trail, limit, size, NULL) < 0
        || PyList_SetSlice(limits, level, SIZE(limits), NULL) < 0)
        goto out_heap;
    Py_ssize_t head = get_size(args[0], str_queue_head);
    if ((head == -1 && PyErr_Occurred())
        || set_size(args[0], str_queue_head, head < limit ? head : limit) < 0)
        goto out_heap;
    result = Py_None;
    Py_INCREF(result);
out_heap:
    release(heap_lists, HEAP_LISTS);
out:
    Py_XDECREF(heap);
    release(lists, SOLVER_LISTS);
    return result;
}

/* Pop maximum-activity variables until one is unassigned; None when empty. */
static PyObject *pop_unassigned(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *lists[HEAP_LISTS];
    if (check_args("pop_unassigned", nargs, 2) < 0)
        return NULL;
    PyObject *value = args[1];
    if (!PyList_Check(value)) {
        PyErr_SetString(PyExc_TypeError, "value must be a list");
        return NULL;
    }
    if (fetch_heap(args[0], lists) < 0)
        return NULL;
    PyObject *heap = lists[HEAP], *pos = lists[POS], *act = lists[ACT], *top = NULL, *last = NULL;
    Py_ssize_t variables = SIZE(act);
    while (SIZE(heap) > 0) {
        top = ITEMS(heap)[0];
        Py_INCREF(top);
        Py_ssize_t top_variable = index_of(top, variables);
        if (top_variable < 0)
            goto error;
        set_item(pos, top_variable, minus_one);
        Py_ssize_t size = SIZE(heap) - 1;
        last = ITEMS(heap)[size];
        Py_INCREF(last);
        if (PyList_SetSlice(heap, size, size + 1, NULL) < 0)
            goto error;
        if (size) {
            Py_ssize_t last_variable = index_of(last, variables);
            if (last_variable < 0)
                goto error;
            double activity = activity_of(act, last_variable);
            Py_ssize_t position = 0, child_position = 1;
            while (child_position < size) {
                Py_ssize_t right = child_position + 1;
                Py_ssize_t child_variable = index_of(ITEMS(heap)[child_position], variables);
                if (child_variable < 0)
                    goto error;
                if (right < size) {
                    Py_ssize_t right_variable = index_of(ITEMS(heap)[right], variables);
                    if (right_variable < 0)
                        goto error;
                    if (activity_of(act, right_variable) > activity_of(act, child_variable)) {
                        child_position = right;
                        child_variable = right_variable;
                    }
                }
                if (activity >= activity_of(act, child_variable))
                    break;
                set_item(heap, position, ITEMS(heap)[child_position]);
                if (set_int(pos, child_variable, position) < 0)
                    goto error;
                position = child_position;
                child_position = 2 * position + 1;
            }
            set_item(heap, position, last);
            if (set_int(pos, last_variable, position) < 0)
                goto error;
        }
        Py_CLEAR(last);
        if (2 * top_variable >= SIZE(value)) {
            PyErr_SetString(PyExc_IndexError, "a heap variable is outside the value table");
            goto error;
        }
        long state = state_of(value, 2 * top_variable);
        if (state == -2 || PyErr_Occurred())
            goto error;
        if (state == -1) {
            release(lists, HEAP_LISTS);
            return top;
        }
        Py_CLEAR(top);
    }
    release(lists, HEAP_LISTS);
    Py_RETURN_NONE;
error:
    Py_XDECREF(last);
    Py_XDECREF(top);
    release(lists, HEAP_LISTS);
    return NULL;
}

static PyMethodDef kernel_methods[] = {
    {"propagate", (PyCFunction)(void (*)(void))propagate, METH_FASTCALL,
     "propagate(solver) -> conflict clause or None; mirrors CdclSolver._propagate."},
    {"backtrack", (PyCFunction)(void (*)(void))backtrack, METH_FASTCALL,
     "backtrack(solver, level); mirrors CdclSolver._backtrack."},
    {"pop_unassigned", (PyCFunction)(void (*)(void))pop_unassigned, METH_FASTCALL,
     "pop_unassigned(heap, value) -> variable or None; mirrors ActivityHeap.pop_unassigned."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel", "Native inner loop of repro.sat.solver.CdclSolver.", -1,
    kernel_methods,
};

static int intern_all(const char *const *names, PyObject **out, int count)
{
    for (int i = 0; i < count; i++)
        if ((out[i] = PyUnicode_InternFromString(names[i])) == NULL)
            return -1;
    return 0;
}

PyMODINIT_FUNC PyInit__kernel(void)
{
    if (intern_all(solver_names, solver_attrs, SOLVER_LISTS) < 0
        || intern_all(heap_names, heap_attrs, HEAP_LISTS) < 0
        || (str_queue_head = PyUnicode_InternFromString("_queue_head")) == NULL
        || (str_stats = PyUnicode_InternFromString("_stats")) == NULL
        || (str_propagations = PyUnicode_InternFromString("propagations")) == NULL
        || (str_heap = PyUnicode_InternFromString("_heap")) == NULL
        || (minus_one = PyLong_FromLong(-1)) == NULL || (zero = PyLong_FromLong(0)) == NULL
        || (one = PyLong_FromLong(1)) == NULL)
        return NULL;
    return PyModule_Create(&kernel_module);
}
