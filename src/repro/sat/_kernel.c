/* The CDCL solver's inner loop in C: unit propagation, backtracking, the
 * branch-variable pop, conflict analysis and clause ingestion.
 *
 * Each function mirrors one Python method of repro/sat/solver.py or
 * repro/sat/heap.py step for step, and those methods stay the reference:
 *
 *   propagate(solver)              CdclSolver._propagate
 *   backtrack(solver, level)       CdclSolver._backtrack, ActivityHeap.push_many
 *   pop_unassigned(heap, value)    ActivityHeap.pop_unassigned
 *   analyze(solver, conflict)      CdclSolver._analyze
 *   add_clause(solver, literals)   CdclSolver._add_clause, CdclSolver._watch_clause
 *   unwatch(solver, code, clause)  CdclSolver._unwatch
 *
 * The functions edit the solver's own lists in place (the code-indexed value
 * table, _level, _reason, _phase, _seen, _watches, _binary, _trail,
 * _trail_limits, _problem, _learned and the heap's _heap/_pos/_act), so the
 * trail order, the clause literal order, the watch-list compaction and the
 * heap sift order come out exactly as the Python methods leave them.  Every
 * index read from a list is checked against the list it indexes, so a broken
 * solver state raises instead of reading out of bounds; after an exception
 * the solver is left as the error found it.
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
/* Every other attribute name the functions use. */
enum {
    QUEUE_HEAD, STATS, PROPAGATIONS, HEAP_ATTR, SEEN, VAR_INC, CLAUSE_INC, LEARNED_LIST,
    LEARNED_FLAG, ACTIVITY, RESCALE, UNSAT, NUM_VARS, ENSURE_VARS, PROBLEM, NAMES
};
static const char *const other_names[NAMES] = {
    "_queue_head", "_stats", "propagations", "_heap", "_seen", "_var_inc", "_clause_inc",
    "_learned", "learned", "activity", "rescale", "_unsat", "_num_vars", "_ensure_vars",
    "_problem",
};
static PyObject *name[NAMES];

/* Rescale thresholds and factors; the same constants as repro/sat/solver.py. */
#define ACTIVITY_LIMIT 1e100
#define ACTIVITY_RESCALE 1e-100
#define CLAUSE_ACTIVITY_LIMIT 1e20
#define CLAUSE_ACTIVITY_RESCALE 1e-20
static PyObject *activity_rescale; /* the float ACTIVITY_RESCALE, for heap.rescale */
static PyObject *clause_type;      /* repro.sat.solver.Clause, imported on first use */

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
    Py_ssize_t head = get_size(args[0], name[QUEUE_HEAD]), start = head;
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
                /* The visited pair already reads (clause, first) when its
                 * blocker is `first`: move it instead of packing a new one. */
                PyObject *target = list_at(watches, alternative);
                PyObject *pair = target == NULL ? NULL
                               : blocker == first_code ? (Py_INCREF(entry), entry)
                               : PyTuple_Pack(2, clause, first);
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
    stats = PyObject_GetAttr(args[0], name[STATS]);
    Py_ssize_t count = stats == NULL ? -1 : get_size(stats, name[PROPAGATIONS]);
    if ((count == -1 && PyErr_Occurred()) || set_size(args[0], name[QUEUE_HEAD], head) < 0
        || set_size(stats, name[PROPAGATIONS], count + head - start) < 0)
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
    heap = PyObject_GetAttr(args[0], name[HEAP_ATTR]);
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
    Py_ssize_t head = get_size(args[0], name[QUEUE_HEAD]);
    if ((head == -1 && PyErr_Occurred())
        || set_size(args[0], name[QUEUE_HEAD], head < limit ? head : limit) < 0)
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

/* owner.name as a double. */
static int get_double(PyObject *owner, PyObject *attr, double *out)
{
    PyObject *number = PyObject_GetAttr(owner, attr);
    if (number == NULL)
        return -1;
    *out = PyFloat_AsDouble(number);
    Py_DECREF(number);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

static int set_double(PyObject *owner, PyObject *attr, double number)
{
    PyObject *item = PyFloat_FromDouble(number);
    if (item == NULL)
        return -1;
    int status = PyObject_SetAttr(owner, attr, item);
    Py_DECREF(item);
    return status;
}

/* _analyze's learned-clause bump, with its rescale over every learned clause. */
static int bump_clause(PyObject *solver, PyObject *clause, double *clause_inc)
{
    PyObject *flag = PyObject_GetAttr(clause, name[LEARNED_FLAG]);
    int learned = flag == NULL ? -1 : PyObject_IsTrue(flag);
    Py_XDECREF(flag);
    if (learned <= 0)
        return learned;
    double activity;
    if (get_double(clause, name[ACTIVITY], &activity) < 0)
        return -1;
    activity += *clause_inc;
    if (set_double(clause, name[ACTIVITY], activity) < 0)
        return -1;
    if (!(activity > CLAUSE_ACTIVITY_LIMIT))
        return 0;
    PyObject *stored = PyObject_GetAttr(solver, name[LEARNED_LIST]);
    if (stored == NULL)
        return -1;
    int status = PyList_Check(stored) ? 0 : -1;
    if (status < 0)
        PyErr_SetString(PyExc_TypeError, "_learned must be a list");
    for (Py_ssize_t i = 0; status == 0 && i < SIZE(stored); i++) {
        PyObject *other = ITEMS(stored)[i];
        Py_INCREF(other);
        status = get_double(other, name[ACTIVITY], &activity) < 0
                 || set_double(other, name[ACTIVITY], activity * CLAUSE_ACTIVITY_RESCALE) < 0
                 ? -1 : 0;
        Py_DECREF(other);
    }
    Py_DECREF(stored);
    if (status == 0) {
        *clause_inc *= CLAUSE_ACTIVITY_RESCALE;
        status = set_double(solver, name[CLAUSE_INC], *clause_inc);
    }
    return status;
}

/* act[variable] += increment, then _analyze's inlined sift-up; the new activity. */
static int bump_variable(PyObject **heap_lists, Py_ssize_t variable, double increment,
                         double *out)
{
    PyObject *order = heap_lists[HEAP], *pos = heap_lists[POS], *act = heap_lists[ACT];
    if (variable >= SIZE(act)) {
        PyErr_SetString(PyExc_IndexError, "a variable is outside the heap's tables");
        return -1;
    }
    double activity = activity_of(act, variable) + increment;
    PyObject *boxed = PyErr_Occurred() ? NULL : PyFloat_FromDouble(activity);
    if (boxed == NULL)
        return -1;
    set_item(act, variable, boxed);
    Py_DECREF(boxed);
    Py_ssize_t start = PyLong_AsSsize_t(ITEMS(pos)[variable]), position = start;
    if (start == -1 && PyErr_Occurred())
        return -1;
    while (position > 0) {
        Py_ssize_t parent_position = (position - 1) >> 1;
        if (position >= SIZE(order)) {
            PyErr_SetString(PyExc_IndexError, "a heap position is outside the heap");
            return -1;
        }
        PyObject *parent = ITEMS(order)[parent_position];
        Py_ssize_t parent_variable = index_of(parent, SIZE(act));
        if (parent_variable < 0)
            return -1;
        double parent_activity = activity_of(act, parent_variable);
        if (PyErr_Occurred())
            return -1;
        if (parent_activity >= activity)
            break;
        set_item(order, position, parent);
        if (set_int(pos, parent_variable, position) < 0)
            return -1;
        position = parent_position;
    }
    /* An unmoved variable already sits at its position (heap[pos[v]] == v). */
    if (position != start) {
        PyObject *entry = PyLong_FromSsize_t(variable);
        if (entry == NULL)
            return -1;
        set_item(order, position, entry);
        Py_DECREF(entry);
        if (set_int(pos, variable, position) < 0)
            return -1;
    }
    *out = activity;
    return 0;
}

static int by_value(const void *a, const void *b)
{
    Py_ssize_t x = *(const Py_ssize_t *)a, y = *(const Py_ssize_t *)b;
    return (x > y) - (x < y);
}

/* The learned clause's LBD: how many distinct levels its literals sit at. */
static Py_ssize_t distinct(Py_ssize_t *levels, Py_ssize_t count)
{
    qsort(levels, count, sizeof *levels, by_value);
    Py_ssize_t result = 1;
    for (Py_ssize_t i = 1; i < count; i++)
        result += levels[i] != levels[i - 1];
    return result;
}

/* First-UIP analysis of `conflict`; returns (learned clause, backjump level, LBD). */
static PyObject *analyze(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *lists[SOLVER_LISTS], *heap_lists[HEAP_LISTS];
    if (check_args("analyze", nargs, 2) < 0 || fetch_solver(args[0], lists) < 0)
        return NULL;
    PyObject *solver = args[0], *trail = lists[TRAIL], *level = lists[LEVEL];
    PyObject *heap = NULL, *seen = NULL, *learned = NULL, *clause = NULL, *result = NULL;
    Py_ssize_t *levels = NULL, codes = SIZE(lists[VALUE]);
    int have_heap = 0;
    double var_inc, clause_inc;
    heap = PyObject_GetAttr(solver, name[HEAP_ATTR]);
    if (heap == NULL || fetch_heap(heap, heap_lists) < 0)
        goto out;
    have_heap = 1;
    seen = PyObject_GetAttr(solver, name[SEEN]);
    if (seen == NULL)
        goto out;
    if (!PyByteArray_Check(seen) || PyByteArray_GET_SIZE(seen) != SIZE(level)) {
        PyErr_SetString(PyExc_ValueError, "_seen must be a bytearray with one mark per variable");
        goto out;
    }
    if (get_double(solver, name[VAR_INC], &var_inc) < 0
        || get_double(solver, name[CLAUSE_INC], &clause_inc) < 0
        || (learned = PyList_New(0)) == NULL)
        goto out;
    Py_ssize_t current_level = SIZE(lists[LIMITS]), counter = 0, trail_index = SIZE(trail) - 1;
    Py_ssize_t uip = 0;
    clause = args[1];
    Py_INCREF(clause);
    for (;;) {
        if (!PyList_Check(clause)) {
            PyErr_SetString(PyExc_TypeError, "a conflict or reason clause must be a list");
            goto out;
        }
        if (bump_clause(solver, clause, &clause_inc) < 0)
            goto out;
        for (Py_ssize_t k = 0; k < SIZE(clause); k++) {
            PyObject *literal = ITEMS(clause)[k];
            Py_ssize_t code = index_of(literal, codes), variable = code >> 1;
            if (code < 0)
                goto out;
            char *marks = PyByteArray_AS_STRING(seen);
            if (marks[variable])
                continue;
            Py_ssize_t variable_level = PyLong_AsSsize_t(ITEMS(level)[variable]);
            if (variable_level == -1 && PyErr_Occurred())
                goto out;
            if (variable_level == 0)
                continue;
            marks[variable] = 1;
            double activity;
            if (bump_variable(heap_lists, variable, var_inc, &activity) < 0)
                goto out;
            if (activity > ACTIVITY_LIMIT) {
                PyObject *done = PyObject_CallMethodOneArg(heap, name[RESCALE], activity_rescale);
                if (done == NULL)
                    goto out;
                Py_DECREF(done);
                var_inc *= ACTIVITY_RESCALE;
            }
            if (variable_level == current_level)
                counter++;
            else if (PyList_Append(learned, literal) < 0)
                goto out;
        }
        /* Find the next marked literal on the trail to resolve. */
        Py_ssize_t variable;
        for (;;) {
            if (trail_index < 0) {
                PyErr_SetString(PyExc_RuntimeError, "conflict analysis ran off the trail");
                goto out;
            }
            uip = index_of(ITEMS(trail)[trail_index], codes);
            if (uip < 0)
                goto out;
            trail_index--;
            variable = uip >> 1;
            if (!PyByteArray_AS_STRING(seen)[variable])
                continue;
            Py_ssize_t variable_level = PyLong_AsSsize_t(ITEMS(level)[variable]);
            if (variable_level == -1 && PyErr_Occurred())
                goto out;
            if (variable_level == current_level)
                break;
        }
        if (--counter == 0)
            break;
        PyObject *reason = ITEMS(lists[REASON])[variable];
        Py_INCREF(reason);
        Py_SETREF(clause, reason);
    }
    if (set_double(solver, name[VAR_INC], var_inc) < 0)
        goto out;
    /* Every marked variable is in the learned clause or on the trail from
     * the first UIP up. */
    char *marks = PyByteArray_AS_STRING(seen);
    for (Py_ssize_t i = 0; i < SIZE(learned); i++)
        marks[PyLong_AsSsize_t(ITEMS(learned)[i]) >> 1] = 0;
    for (Py_ssize_t i = trail_index + 1; i < SIZE(trail); i++)
        marks[PyLong_AsSsize_t(ITEMS(trail)[i]) >> 1] = 0;
    PyObject *asserting = PyLong_FromSsize_t(uip ^ 1);
    int status = asserting == NULL ? -1 : PyList_Insert(learned, 0, asserting);
    Py_XDECREF(asserting);
    if (status < 0)
        goto out;
    Py_ssize_t size = SIZE(learned), backjump = 0, deepest = 1;
    if (size == 1) {
        result = Py_BuildValue("(Oii)", learned, 0, 1);
        goto out;
    }
    if ((levels = PyMem_New(Py_ssize_t, size)) == NULL) {
        PyErr_NoMemory();
        goto out;
    }
    for (Py_ssize_t i = 0; i < size; i++) {
        levels[i] = PyLong_AsSsize_t(ITEMS(level)[PyLong_AsSsize_t(ITEMS(learned)[i]) >> 1]);
        if (levels[i] == -1 && PyErr_Occurred())
            goto out;
        if (i >= 1 && (i == 1 || levels[i] > backjump)) {
            backjump = levels[i];
            deepest = i;
        }
    }
    PyObject *second = ITEMS(learned)[1];
    ITEMS(learned)[1] = ITEMS(learned)[deepest];
    ITEMS(learned)[deepest] = second;
    result = Py_BuildValue("(Onn)", learned, backjump, distinct(levels, size));
out:
    PyMem_Free(levels);
    Py_XDECREF(clause);
    Py_XDECREF(learned);
    Py_XDECREF(seen);
    if (have_heap)
        release(heap_lists, HEAP_LISTS);
    Py_XDECREF(heap);
    release(lists, SOLVER_LISTS);
    return result;
}

/* Append (first, second) to table[code]. */
static int append_pair(PyObject *table, Py_ssize_t code, PyObject *first, PyObject *second)
{
    PyObject *list = list_at(table, code);
    PyObject *pair = list == NULL ? NULL : PyTuple_Pack(2, first, second);
    if (pair == NULL)
        return -1;
    int status = PyList_Append(list, pair);
    Py_DECREF(pair);
    return status;
}

/* _watch_clause: the first two literals, in implication lists when binary. */
static int watch_clause(PyObject **lists, PyObject *clause)
{
    if (!PyList_Check(clause) || SIZE(clause) < 2) {
        PyErr_SetString(PyExc_TypeError, "a stored clause must list 2+ literals");
        return -1;
    }
    PyObject *first = ITEMS(clause)[0], *second = ITEMS(clause)[1];
    Py_ssize_t codes = SIZE(lists[VALUE]);
    Py_ssize_t first_code = index_of(first, codes), second_code = index_of(second, codes);
    if (first_code < 0 || second_code < 0)
        return -1;
    if (SIZE(clause) == 2)
        return append_pair(lists[BINARY], first_code, second, clause) < 0
               || append_pair(lists[BINARY], second_code, first, clause) < 0 ? -1 : 0;
    return append_pair(lists[WATCHES], first_code, clause, second) < 0
           || append_pair(lists[WATCHES], second_code, clause, first) < 0 ? -1 : 0;
}

static int by_variable(const void *a, const void *b)
{
    Py_ssize_t x = *(const Py_ssize_t *)a, y = *(const Py_ssize_t *)b;
    Py_ssize_t abs_x = x < 0 ? -x : x, abs_y = y < 0 ? -y : y;
    if (abs_x != abs_y)
        return abs_x < abs_y ? -1 : 1;
    return (x > y) - (x < y);
}

/* The DIMACS literals of the list `items` into `out`, sorted by variable
 * without repeats; how many, or -1 with an exception.  As in the Python
 * method, a 0 raises before a tautology is looked for. */
static Py_ssize_t normalise(PyObject *items, Py_ssize_t *out, int *tautology)
{
    Py_ssize_t count = SIZE(items), kept = 0;
    *tautology = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *integer = PyNumber_Index(ITEMS(items)[i]);
        if (integer == NULL)
            return -1;
        out[i] = PyLong_AsSsize_t(integer);
        Py_DECREF(integer);
        if (out[i] == -1 && PyErr_Occurred())
            return -1;
        if (out[i] == PY_SSIZE_T_MIN) {
            PyErr_SetString(PyExc_OverflowError, "literal too large");
            return -1;
        }
    }
    qsort(out, count, sizeof *out, by_variable);
    if (count && out[0] == 0) {
        PyErr_SetString(PyExc_ValueError, "0 is not a valid DIMACS literal");
        return -1;
    }
    for (Py_ssize_t i = 0; i < count; i++) {
        if (kept && out[i] == out[kept - 1])
            continue;
        if (kept && out[i] == -out[kept - 1]) {
            *tautology = 1;
            return 0;
        }
        out[kept++] = out[i];
    }
    return kept;
}

/* The unit clause `literal` at level 0: enqueue it, then propagate. */
static int add_unit(PyObject *module, PyObject *solver, PyObject **lists, Py_ssize_t code,
                    PyObject *literal)
{
    if (assign(lists, code, literal, zero, Py_None) < 0)
        return -1;
    PyObject *conflict = propagate(module, &solver, 1);
    if (conflict == NULL)
        return -1;
    int status = conflict == Py_None ? 0 : PyObject_SetAttr(solver, name[UNSAT], Py_True);
    Py_DECREF(conflict);
    return status;
}

/* Store the clause of 2+ codes in _problem and watch it. */
static int add_stored(PyObject *solver, PyObject **lists, PyObject *codes)
{
    if (clause_type == NULL) {
        PyObject *solver_module = PyImport_ImportModule("repro.sat.solver");
        if (solver_module == NULL)
            return -1;
        clause_type = PyObject_GetAttrString(solver_module, "Clause");
        Py_DECREF(solver_module);
        if (clause_type == NULL)
            return -1;
    }
    PyObject *stored = PyObject_CallOneArg(clause_type, codes);
    if (stored == NULL)
        return -1;
    PyObject *problem = PyObject_GetAttr(solver, name[PROBLEM]);
    int status = problem == NULL ? -1 : PyList_Append(problem, stored);
    if (status == 0)
        status = watch_clause(lists, stored);
    Py_XDECREF(problem);
    Py_DECREF(stored);
    return status;
}

/* Add a clause at decision level 0. */
static PyObject *add_clause(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_args("add_clause", nargs, 2) < 0)
        return NULL;
    PyObject *solver = args[0], *lists[SOLVER_LISTS], *items = NULL, *codes = NULL;
    PyObject *result = NULL;
    Py_ssize_t *literals = NULL;
    int have_lists = 0, tautology;
    PyObject *limits = PyObject_GetAttr(solver, solver_attrs[LIMITS]);
    int open = limits == NULL ? -1 : PyObject_IsTrue(limits);
    Py_XDECREF(limits);
    if (open < 0)
        return NULL;
    if (open) {
        PyErr_SetString(PyExc_RuntimeError, "clauses can only be added at decision level 0");
        return NULL;
    }
    /* A private copy: an __index__ hook cannot resize it under normalise. */
    items = PySequence_List(args[1]);
    if (items == NULL)
        return NULL;
    Py_ssize_t count = SIZE(items);
    if ((literals = PyMem_New(Py_ssize_t, count ? count : 1)) == NULL) {
        PyErr_NoMemory();
        goto out;
    }
    count = normalise(items, literals, &tautology);
    if (count < 0)
        goto out;
    if (tautology)
        goto done;
    Py_ssize_t top = count ? Py_ABS(literals[count - 1]) : 0;
    Py_ssize_t num_vars = get_size(solver, name[NUM_VARS]);
    if (num_vars == -1 && PyErr_Occurred())
        goto out;
    if (top > num_vars) {
        PyObject *bound = PyLong_FromSsize_t(top);
        PyObject *grown = bound == NULL ? NULL
                        : PyObject_CallMethodOneArg(solver, name[ENSURE_VARS], bound);
        Py_XDECREF(bound);
        if (grown == NULL)
            goto out;
        Py_DECREF(grown);
    }
    if (fetch_solver(solver, lists) < 0)
        goto out;
    have_lists = 1;
    /* At level 0 every assignment is permanent: drop false literals and skip
     * the clause if one is already true. */
    PyObject *value = lists[VALUE];
    if ((codes = PyList_New(0)) == NULL)
        goto out;
    for (Py_ssize_t i = 0; i < count; i++) {
        Py_ssize_t variable = Py_ABS(literals[i]);
        if (variable >= SIZE(value) / 2) {
            PyErr_SetString(PyExc_IndexError, "a literal is outside the value table");
            goto out;
        }
        Py_ssize_t code = literals[i] > 0 ? variable << 1 : (variable << 1) | 1;
        long state = state_of(value, code);
        if (state == -2)
            goto out;
        if (state == 1)
            goto done;
        if (state == -1) {
            PyObject *item = PyLong_FromSsize_t(code);
            int status = item == NULL ? -1 : PyList_Append(codes, item);
            Py_XDECREF(item);
            if (status < 0)
                goto out;
        }
    }
    if (SIZE(codes) == 0) {
        if (PyObject_SetAttr(solver, name[UNSAT], Py_True) < 0)
            goto out;
    }
    else if (SIZE(codes) == 1) {
        PyObject *unit = ITEMS(codes)[0];
        if (add_unit(module, solver, lists, PyLong_AsSsize_t(unit), unit) < 0)
            goto out;
    }
    else if (add_stored(solver, lists, codes) < 0)
        goto out;
done:
    result = Py_None;
    Py_INCREF(result);
out:
    if (have_lists)
        release(lists, SOLVER_LISTS);
    Py_XDECREF(codes);
    PyMem_Free(literals);
    Py_DECREF(items);
    return result;
}

/* Swap-remove `clause` from the watch list of `code`. */
static PyObject *unwatch(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_args("unwatch", nargs, 3) < 0)
        return NULL;
    PyObject *watches = PyObject_GetAttr(args[0], solver_attrs[WATCHES]), *result = NULL;
    if (watches == NULL)
        return NULL;
    if (!PyList_Check(watches)) {
        PyErr_SetString(PyExc_TypeError, "_watches must be a list");
        goto out;
    }
    Py_ssize_t code = index_of(args[1], SIZE(watches));
    PyObject *watch_list = code < 0 ? NULL : list_at(watches, code);
    if (watch_list == NULL)
        goto out;
    for (Py_ssize_t i = 0; i < SIZE(watch_list); i++) {
        PyObject *entry = ITEMS(watch_list)[i];
        if (!is_pair(entry))
            goto out;
        if (PyTuple_GET_ITEM(entry, 0) != args[2])
            continue;
        Py_ssize_t last = SIZE(watch_list) - 1;
        set_item(watch_list, i, ITEMS(watch_list)[last]);
        if (PyList_SetSlice(watch_list, last, last + 1, NULL) < 0)
            goto out;
        result = Py_None;
        Py_INCREF(result);
        goto out;
    }
    PyErr_SetString(PyExc_RuntimeError, "internal solver error: clause missing from watch list");
out:
    Py_DECREF(watches);
    return result;
}

static PyMethodDef kernel_methods[] = {
    {"propagate", (PyCFunction)(void (*)(void))propagate, METH_FASTCALL,
     "propagate(solver) -> conflict clause or None; mirrors CdclSolver._propagate."},
    {"backtrack", (PyCFunction)(void (*)(void))backtrack, METH_FASTCALL,
     "backtrack(solver, level); mirrors CdclSolver._backtrack."},
    {"pop_unassigned", (PyCFunction)(void (*)(void))pop_unassigned, METH_FASTCALL,
     "pop_unassigned(heap, value) -> variable or None; mirrors ActivityHeap.pop_unassigned."},
    {"analyze", (PyCFunction)(void (*)(void))analyze, METH_FASTCALL,
     "analyze(solver, conflict) -> (learned, backjump, lbd); mirrors CdclSolver._analyze."},
    {"add_clause", (PyCFunction)(void (*)(void))add_clause, METH_FASTCALL,
     "add_clause(solver, literals); mirrors CdclSolver._add_clause."},
    {"unwatch", (PyCFunction)(void (*)(void))unwatch, METH_FASTCALL,
     "unwatch(solver, code, clause); mirrors CdclSolver._unwatch."},
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
        || intern_all(other_names, name, NAMES) < 0
        || (minus_one = PyLong_FromLong(-1)) == NULL || (zero = PyLong_FromLong(0)) == NULL
        || (one = PyLong_FromLong(1)) == NULL
        || (activity_rescale = PyFloat_FromDouble(ACTIVITY_RESCALE)) == NULL)
        return NULL;
    return PyModule_Create(&kernel_module);
}
