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
 * The solver keeps its state in typed arrays (array.array), not in Python
 * objects: the clause arena, the code-indexed value table, _level, _reason,
 * _phase, _trail, _trail_limits, _problem, the learned-clause activities, the
 * PairLists pools of _watches and _binary, and the heap's _heap/_pos/_act;
 * _seen is a bytearray.  The functions edit the same arrays the Python
 * methods index, so the trail order, the clause literal order, the watch-list
 * compaction and the heap sift order come out exactly as the Python methods
 * leave them.  Each call fetches every table once, checks its type, and
 * checks once that the per-variable tables agree in length; every code,
 * offset and position read from a table is then checked against the table it
 * indexes, so a broken solver state raises instead of reading or writing out
 * of bounds (and leaves the solver unusable).
 *
 * Tables that grow (the trail, the heap, the arena, the pools) are resized
 * here by array.array's own rule, through its object layout, because a
 * buffer view would pin an array's size for the whole call.  Module
 * initialisation checks that layout against the buffer protocol on a live
 * array and refuses to load if it differs.
 *
 * repro/sat/native.py builds and loads this file.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <string.h>

/* The leading fields of CPython's array object and of its item descriptor
 * (Modules/arraymodule.c). */
typedef struct {
    char typecode;
    int itemsize;
} Descr;

typedef struct {
    PyObject_VAR_HEAD
    char *items;
    Py_ssize_t allocated;
    const Descr *descr;
    PyObject *weakrefs;
    Py_ssize_t exports;
} Array;

#define INTS(array) ((int *)(array)->items)
#define BYTES(array) ((signed char *)(array)->items)
#define DOUBLES(array) ((double *)(array)->items)
#define LEN(array) Py_SIZE(array)

static PyTypeObject *array_type;

/* Attribute names: the solver's tables, its pools' and its heap's, then the rest. */
enum {
    ARENA, PROBLEM, TRAIL, LIMITS, VALUE, LEVEL, REASON, PHASE, ACTIVITY, TABLES,
    ITEMS = TABLES, START, SIZE, CAPACITY,
    ORDER, POS, ACT,
    WATCHES, BINARY, HEAP, SEEN, QUEUE_HEAD, STATS, PROPAGATIONS, VAR_INC, CLAUSE_INC, UNSAT,
    NUM_VARS, ENSURE_VARS, NAMES
};
static const char *const names[NAMES] = {
    "_arena", "_problem", "_trail", "_trail_limits", "_value", "_level", "_reason", "_phase",
    "_activity", "items", "start", "size", "capacity", "_heap", "_pos", "_act",
    "_watches", "_binary", "_heap", "_seen", "_queue_head", "_stats", "propagations",
    "_var_inc", "_clause_inc", "_unsat", "_num_vars", "_ensure_vars",
};
/* The typecode of each table, by name index. */
static const char typecodes[] = "iiiibiibdiiiiiid";
static PyObject *name[NAMES];

/* Rescale thresholds and factors; the same constants as repro/sat/solver.py. */
#define ACTIVITY_LIMIT 1e100
#define ACTIVITY_RESCALE 1e-100
#define CLAUSE_ACTIVITY_LIMIT 1e20
#define CLAUSE_ACTIVITY_RESCALE 1e-20

/* Resize `array` to `size` items, new items zero, by array.array's growth rule. */
static int resize(Array *array, Py_ssize_t size)
{
    if (array->exports > 0) {
        PyErr_SetString(PyExc_BufferError, "cannot resize an array that is exporting buffers");
        return -1;
    }
    Py_ssize_t itemsize = array->descr->itemsize, old = LEN(array);
    if (size > array->allocated) {
        Py_ssize_t allocated = size + (size >> 4) + (old < 8 ? 3 : 7);
        char *items = allocated > PY_SSIZE_T_MAX / itemsize
                      ? NULL : PyMem_Realloc(array->items, allocated * itemsize);
        if (items == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        array->items = items;
        array->allocated = allocated;
    }
    if (size > old)
        memset(array->items + old * itemsize, 0, (size - old) * itemsize);
    Py_SET_SIZE(array, size);
    return 0;
}

static int push(Array *array, int item)
{
    Py_ssize_t size = LEN(array);
    if (resize(array, size + 1) < 0)
        return -1;
    INTS(array)[size] = item;
    return 0;
}

/* A PairLists pool: list c is items[start[c] : start[c] + size[c]], in capacity[c] items. */
typedef struct {
    Array *items, *start, *size, *capacity;
} Pool;

/* The tables one call works on, with the references that keep them alive. */
typedef struct {
    Array *table[ACT + 1];   /* by name: ARENA..ACTIVITY and ORDER..ACT */
    Pool watches, binary;
    PyObject *owned[32];
    int count;
    Py_ssize_t codes, variables;
} State;

static void release(State *state)
{
    for (int i = 0; i < state->count; i++)
        Py_DECREF(state->owned[i]);
    state->count = 0;
}

static PyObject *attribute(State *state, PyObject *owner, int which)
{
    PyObject *object = PyObject_GetAttr(owner, name[which]);
    if (object != NULL)
        state->owned[state->count++] = object;
    return object;
}

/* owner.<name> checked to be an array of the name's typecode. */
static Array *table(State *state, PyObject *owner, int which)
{
    PyObject *object = attribute(state, owner, which);
    if (object == NULL)
        return NULL;
    if (Py_IS_TYPE(object, array_type) && ((Array *)object)->descr->typecode == typecodes[which])
        return (Array *)object;
    PyErr_Format(PyExc_TypeError, "%U must be an array('%c')", name[which], typecodes[which]);
    return NULL;
}

static int fetch_pool(State *state, PyObject *solver, int which, Pool *pool)
{
    PyObject *lists = attribute(state, solver, which);
    return lists == NULL || !(pool->items = table(state, lists, ITEMS))
           || !(pool->start = table(state, lists, START))
           || !(pool->size = table(state, lists, SIZE))
           || !(pool->capacity = table(state, lists, CAPACITY)) ? -1 : 0;
}

static int pool_agrees(const Pool *pool, Py_ssize_t codes)
{
    return LEN(pool->start) == codes && LEN(pool->size) == codes && LEN(pool->capacity) == codes;
}

static int fetch_heap(State *state, PyObject *heap)
{
    for (int which = ORDER; which <= ACT; which++)
        if ((state->table[which] = table(state, heap, which)) == NULL)
            return -1;
    state->variables = LEN(state->table[ACT]);
    if (LEN(state->table[POS]) == state->variables)
        return 0;
    PyErr_SetString(PyExc_ValueError, "heap position and activity tables differ in size");
    return -1;
}

/* Every table of `solver`, checked to agree on the number of variables. */
static int fetch(State *state, PyObject *solver)
{
    state->count = 0;
    for (int which = ARENA; which < TABLES; which++)
        if ((state->table[which] = table(state, solver, which)) == NULL)
            goto error;
    PyObject *heap = attribute(state, solver, HEAP);
    if (heap == NULL || fetch_pool(state, solver, WATCHES, &state->watches) < 0
        || fetch_pool(state, solver, BINARY, &state->binary) < 0 || fetch_heap(state, heap) < 0)
        goto error;
    Py_ssize_t codes = state->codes = LEN(state->table[VALUE]), variables = codes / 2;
    if (codes == 2 * state->variables && LEN(state->table[LEVEL]) == variables
        && LEN(state->table[REASON]) == variables && LEN(state->table[PHASE]) == variables
        && pool_agrees(&state->watches, codes) && pool_agrees(&state->binary, codes))
        return 0;
    PyErr_SetString(PyExc_ValueError, "solver tables disagree on the number of variables");
error:
    release(state);
    return -1;
}

static int out_of_range(const char *what, long index)
{
    PyErr_Format(PyExc_IndexError, "%s %ld is out of range", what, index);
    return -1;
}

/* Jump to `error` with IndexError unless `code` indexes the value table. */
#define CHECK_CODE(state, code)                            \
    if ((size_t)(code) >= (size_t)(state)->codes) {        \
        out_of_range("literal code", code);                \
        goto error;                                        \
    }

/* The literals of the clause at `offset` (at least `least` of them); NULL with IndexError. */
static int *clause_at(State *state, long offset, Py_ssize_t least, Py_ssize_t *size)
{
    Array *arena = state->table[ARENA];
    if (offset >= 2 && offset < LEN(arena)) {
        *size = INTS(arena)[offset - 2];
        if (*size >= least && *size <= LEN(arena) - offset)
            return INTS(arena) + offset;
    }
    PyErr_Format(PyExc_IndexError, "conflict or reason clause offset %ld is outside the arena",
                 offset);
    return NULL;
}

/* The list of checked `code` in a pool, as items [*begin, *end). */
static int segment(const Pool *pool, Py_ssize_t code, Py_ssize_t *begin, Py_ssize_t *end)
{
    Py_ssize_t start = INTS(pool->start)[code], size = INTS(pool->size)[code];
    Py_ssize_t capacity = INTS(pool->capacity)[code];
    if (start >= 0 && size >= 0 && !((size | capacity) & 1) && size <= capacity
        && capacity <= LEN(pool->items) - start) {
        *begin = start;
        *end = start + size;
        return 0;
    }
    PyErr_SetString(PyExc_ValueError, "a watch or implication list lies outside its pool");
    return -1;
}

/* PairLists.append: (first, second) onto the list of checked `code`. */
static int append_pair(const Pool *pool, Py_ssize_t code, int first, int second)
{
    Py_ssize_t begin, end;
    if (segment(pool, code, &begin, &end) < 0)
        return -1;
    Py_ssize_t size = end - begin;
    if (size == INTS(pool->capacity)[code]) {
        Py_ssize_t moved = LEN(pool->items), capacity = size ? 2 * size : 4;
        if (moved + capacity > INT_MAX) {
            PyErr_SetString(PyExc_OverflowError, "a watch or implication pool is full");
            return -1;
        }
        if (resize(pool->items, moved + capacity) < 0)
            return -1;
        memcpy(INTS(pool->items) + moved, INTS(pool->items) + begin, size * sizeof(int));
        INTS(pool->start)[code] = (int)moved;
        INTS(pool->capacity)[code] = (int)capacity;
        begin = moved;
    }
    INTS(pool->items)[begin + size] = first;
    INTS(pool->items)[begin + size + 1] = second;
    INTS(pool->size)[code] = (int)(size + 2);
    return 0;
}

/* Assign the checked literal `code` at `level` with `reason`. */
static int assign(State *state, int code, int level, int reason)
{
    BYTES(state->table[VALUE])[code] = 1;
    BYTES(state->table[VALUE])[code ^ 1] = 0;
    INTS(state->table[LEVEL])[code >> 1] = level;
    INTS(state->table[REASON])[code >> 1] = reason;
    BYTES(state->table[PHASE])[code >> 1] = code & 1;
    return push(state->table[TRAIL], code);
}

static Py_ssize_t get_size(PyObject *owner, int which)
{
    PyObject *number = PyObject_GetAttr(owner, name[which]);
    if (number == NULL)
        return -1;
    Py_ssize_t result = PyLong_AsSsize_t(number);
    Py_DECREF(number);
    return result;
}

static int set_object(PyObject *owner, int which, PyObject *item)
{
    int status = item == NULL ? -1 : PyObject_SetAttr(owner, name[which], item);
    Py_XDECREF(item);
    return status;
}

static int check_args(const char *function, Py_ssize_t nargs, Py_ssize_t expected)
{
    if (nargs == expected)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", function, expected,
                 nargs);
    return -1;
}

/* Unit propagation over the solver's queue: the conflicting clause's offset,
 * -1 for none, -2 with an exception. */
static long run_propagate(PyObject *solver, State *state)
{
    Array *trail = state->table[TRAIL];
    const Pool *watches = &state->watches, *binary = &state->binary;
    signed char *value = BYTES(state->table[VALUE]);
    /* Propagation never opens a decision level, so this is loop-invariant. */
    int level = (int)LEN(state->table[LIMITS]);
    long conflict = -1;
    Py_ssize_t head = get_size(solver, QUEUE_HEAD), start = head, begin, end;
    if (head < 0) {
        if (!PyErr_Occurred())
            out_of_range("queue head", (long)head);
        return -2;
    }
    while (head < LEN(trail)) {
        int falsified = INTS(trail)[head] ^ 1;
        CHECK_CODE(state, falsified);
        head++;
        if (segment(binary, falsified, &begin, &end) < 0)
            goto error;
        for (Py_ssize_t i = begin; i < end; i += 2) {
            int implied = INTS(binary->items)[i];
            CHECK_CODE(state, implied);
            if (value[implied] == 1)
                continue;
            if (value[implied] == 0) {
                conflict = INTS(binary->items)[i + 1];
                goto done;
            }
            if (assign(state, implied, level, INTS(binary->items)[i + 1]) < 0)
                goto error;
        }
        /* Compacted in place to [begin, keep).  A moved watch goes to a
         * non-falsified literal's list, so this list never grows mid-sweep. */
        if (segment(watches, falsified, &begin, &end) < 0)
            goto error;
        Py_ssize_t keep = begin, size;
        for (Py_ssize_t i = begin; i < end; i += 2) {
            int *items = INTS(watches->items); /* a moved watch may reallocate the pool */
            int clause = items[i], blocker = items[i + 1];
            CHECK_CODE(state, blocker);
            /* Blocking literal already true: clause satisfied, keep as-is. */
            if (value[blocker] == 1) {
                items[keep++] = clause;
                items[keep++] = blocker;
                continue;
            }
            int *literals = clause_at(state, clause, 2, &size);
            if (literals == NULL)
                goto error;
            /* Ensure the falsified literal sits at position 1. */
            int first = literals[0];
            if (first == falsified) {
                first = literals[1];
                literals[0] = first;
                literals[1] = falsified;
            }
            CHECK_CODE(state, first);
            signed char state_of_first = value[first];
            if (state_of_first == 1) {
                items[keep++] = clause;
                items[keep++] = first;
                continue;
            }
            /* Watch the first non-false literal past the two watches. */
            Py_ssize_t k = 2;
            for (; k < size; k++) {
                CHECK_CODE(state, literals[k]);
                if (value[literals[k]] != 0)
                    break;
            }
            if (k < size) {
                int alternative = literals[k];
                literals[k] = falsified;
                literals[1] = alternative;
                if (append_pair(watches, alternative, clause, first) < 0)
                    goto error;
                continue;
            }
            items[keep++] = clause;
            items[keep++] = first;
            if (state_of_first == 0) {
                /* Conflict: slide the unvisited tail down and stop. */
                memmove(items + keep, items + i + 2, (end - i - 2) * sizeof(int));
                INTS(watches->size)[falsified] = (int)(keep + end - i - 2 - begin);
                conflict = clause;
                goto done;
            }
            /* Unit: `first` is unassigned. */
            if (assign(state, first, level, clause) < 0)
                goto error;
        }
        INTS(watches->size)[falsified] = (int)(keep - begin);
    }
done:;
    /* The Python method's `finally`: store the queue head, count the work. */
    PyObject *stats = PyObject_GetAttr(solver, name[STATS]);
    Py_ssize_t count = stats == NULL ? -1 : get_size(stats, PROPAGATIONS);
    int status = (count == -1 && PyErr_Occurred())
                 || set_object(solver, QUEUE_HEAD, PyLong_FromSsize_t(head)) < 0
                 || set_object(stats, PROPAGATIONS, PyLong_FromSsize_t(count + head - start)) < 0;
    Py_XDECREF(stats);
    return status ? -2 : conflict;
error:
    return -2;
}

static PyObject *propagate(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    State state;
    if (check_args("propagate", nargs, 1) < 0 || fetch(&state, args[0]) < 0)
        return NULL;
    long conflict = run_propagate(args[0], &state);
    release(&state);
    return conflict == -2 ? NULL : PyLong_FromLong(conflict);
}

/* Re-insert checked `variable` unless it is in the heap; sift it up (push_many's step). */
static int push_variable(State *state, int variable)
{
    Array *order = state->table[ORDER];
    int *pos = INTS(state->table[POS]);
    double *act = DOUBLES(state->table[ACT]), activity = act[variable];
    if (pos[variable] >= 0)
        return 0;
    Py_ssize_t position = LEN(order);
    if (push(order, variable) < 0)
        return -1;
    int *heap = INTS(order);
    while (position > 0) {
        Py_ssize_t parent_position = (position - 1) >> 1;
        int parent = heap[parent_position];
        if ((size_t)parent >= (size_t)state->variables)
            return out_of_range("heap variable", parent);
        if (act[parent] >= activity)
            break;
        heap[position] = parent;
        pos[parent] = (int)position;
        position = parent_position;
    }
    heap[position] = variable;
    pos[variable] = (int)position;
    return 0;
}

/* Undo every assignment above decision level `level`; re-insert the variables. */
static PyObject *backtrack(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    State state;
    if (check_args("backtrack", nargs, 2) < 0)
        return NULL;
    Py_ssize_t level = PyLong_AsSsize_t(args[1]);
    if ((level == -1 && PyErr_Occurred()) || fetch(&state, args[0]) < 0)
        return NULL;
    Array *trail = state.table[TRAIL], *limits = state.table[LIMITS];
    if (level < 0 || LEN(limits) <= level)
        goto done;
    Py_ssize_t size = LEN(trail), limit = INTS(limits)[level];
    if ((size_t)limit > (size_t)size) {
        out_of_range("trail limit", limit);
        goto error;
    }
    for (Py_ssize_t i = limit; i < size; i++) {
        int code = INTS(trail)[i];
        CHECK_CODE(&state, code);
        BYTES(state.table[VALUE])[code] = -1;
        BYTES(state.table[VALUE])[code ^ 1] = -1;
        INTS(state.table[REASON])[code >> 1] = -1;
    }
    for (Py_ssize_t i = limit; i < size; i++)
        if (push_variable(&state, INTS(trail)[i] >> 1) < 0)
            goto error;
    Py_ssize_t head = get_size(args[0], QUEUE_HEAD);
    if ((head == -1 && PyErr_Occurred()) || resize(trail, limit) < 0 || resize(limits, level) < 0
        || set_object(args[0], QUEUE_HEAD, PyLong_FromSsize_t(head < limit ? head : limit)) < 0)
        goto error;
done:
    release(&state);
    Py_RETURN_NONE;
error:
    release(&state);
    return NULL;
}

/* Pop maximum-activity variables until one is unassigned; None when empty. */
static PyObject *pop_unassigned(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    State state = {.count = 0};
    if (check_args("pop_unassigned", nargs, 2) < 0)
        return NULL;
    Array *value = (Array *)args[1];
    if (!Py_IS_TYPE(args[1], array_type) || value->descr->typecode != 'b') {
        PyErr_SetString(PyExc_TypeError, "value must be an array('b')");
        return NULL;
    }
    if (fetch_heap(&state, args[0]) < 0)
        goto error;
    Array *order = state.table[ORDER];
    int *pos = INTS(state.table[POS]);
    double *act = DOUBLES(state.table[ACT]);
    while (LEN(order) > 0) {
        int *heap = INTS(order), top = heap[0];
        Py_ssize_t size = LEN(order) - 1, position = 0, child_position = 1;
        int last = heap[size];
        if ((size_t)top >= (size_t)state.variables || (size_t)last >= (size_t)state.variables) {
            out_of_range("heap variable", top);
            goto error;
        }
        pos[top] = -1;
        if (resize(order, size) < 0)
            goto error;
        if (size) {
            double activity = act[last];
            while (child_position < size) {
                Py_ssize_t right = child_position + 1;
                int child = heap[child_position];
                if ((size_t)child >= (size_t)state.variables) {
                    out_of_range("heap variable", child);
                    goto error;
                }
                if (right < size) {
                    int other = heap[right];
                    if ((size_t)other >= (size_t)state.variables) {
                        out_of_range("heap variable", other);
                        goto error;
                    }
                    if (act[other] > act[child]) {
                        child_position = right;
                        child = other;
                    }
                }
                if (activity >= act[child])
                    break;
                heap[position] = child;
                pos[child] = (int)position;
                position = child_position;
                child_position = 2 * position + 1;
            }
            heap[position] = last;
            pos[last] = (int)position;
        }
        if (2 * (Py_ssize_t)top >= LEN(value)) {
            PyErr_SetString(PyExc_IndexError, "a heap variable is outside the value table");
            goto error;
        }
        if (BYTES(value)[2 * top] == -1) {
            release(&state);
            return PyLong_FromLong(top);
        }
    }
    release(&state);
    Py_RETURN_NONE;
error:
    release(&state);
    return NULL;
}

static int get_double(PyObject *owner, int which, double *out)
{
    PyObject *number = PyObject_GetAttr(owner, name[which]);
    if (number == NULL)
        return -1;
    *out = PyFloat_AsDouble(number);
    Py_DECREF(number);
    return *out == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* _analyze's learned-clause bump, with its rescale over every learned clause. */
static int bump_clause(State *state, PyObject *solver, int index, double *clause_inc)
{
    Array *activity = state->table[ACTIVITY];
    if (index >= LEN(activity))
        return out_of_range("learned clause index", index);
    double *activities = DOUBLES(activity);
    activities[index] += *clause_inc;
    if (!(activities[index] > CLAUSE_ACTIVITY_LIMIT))
        return 0;
    for (Py_ssize_t i = 0; i < LEN(activity); i++)
        activities[i] *= CLAUSE_ACTIVITY_RESCALE;
    *clause_inc *= CLAUSE_ACTIVITY_RESCALE;
    return set_object(solver, CLAUSE_INC, PyFloat_FromDouble(*clause_inc));
}

/* act[variable] += increment, then _analyze's inlined sift-up; the new activity. */
static int bump_variable(State *state, int variable, double increment, double *out)
{
    int *order = INTS(state->table[ORDER]), *pos = INTS(state->table[POS]);
    double *act = DOUBLES(state->table[ACT]), activity = act[variable] + increment;
    act[variable] = activity;
    Py_ssize_t position = pos[variable];
    if (position >= LEN(state->table[ORDER]))
        return out_of_range("heap position", (long)position);
    while (position > 0) {
        Py_ssize_t parent_position = (position - 1) >> 1;
        int parent = order[parent_position];
        if ((size_t)parent >= (size_t)state->variables)
            return out_of_range("heap variable", parent);
        if (act[parent] >= activity)
            break;
        order[position] = parent;
        pos[parent] = (int)position;
        position = parent_position;
    }
    if (position >= 0) {
        order[position] = variable;
        pos[variable] = (int)position;
    }
    *out = activity;
    return 0;
}

static int by_value(const void *a, const void *b)
{
    int x = *(const int *)a, y = *(const int *)b;
    return (x > y) - (x < y);
}

/* First-UIP analysis of `conflict`; returns (learned clause, backjump level, LBD). */
static PyObject *analyze(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    State state;
    if (check_args("analyze", nargs, 2) < 0)
        return NULL;
    long clause = PyLong_AsLong(args[1]);
    if ((clause == -1 && PyErr_Occurred()) || fetch(&state, args[0]) < 0)
        return NULL;
    PyObject *solver = args[0], *result = NULL;
    Array *trail = state.table[TRAIL];
    int *level = INTS(state.table[LEVEL]), *learned = NULL, *levels = NULL, uip = 0;
    double var_inc, clause_inc;
    PyObject *seen = attribute(&state, solver, SEEN);
    if (seen == NULL)
        goto error;
    if (!PyByteArray_Check(seen) || PyByteArray_GET_SIZE(seen) != state.variables) {
        PyErr_SetString(PyExc_ValueError, "_seen must be a bytearray with one mark per variable");
        goto error;
    }
    char *marks = PyByteArray_AS_STRING(seen);
    learned = PyMem_New(int, state.variables + 1);
    levels = PyMem_New(int, state.variables + 1);
    if (learned == NULL || levels == NULL) {
        PyErr_NoMemory();
        goto error;
    }
    if (get_double(solver, VAR_INC, &var_inc) < 0
        || get_double(solver, CLAUSE_INC, &clause_inc) < 0)
        goto error;
    Py_ssize_t current_level = LEN(state.table[LIMITS]), counter = 0, count = 1, size;
    Py_ssize_t trail_index = LEN(trail) - 1;
    for (;;) {
        int *literals = clause_at(&state, clause, 1, &size);
        if (literals == NULL || (literals[-1] >= 0
                                 && bump_clause(&state, solver, literals[-1], &clause_inc) < 0))
            goto error;
        for (Py_ssize_t k = 0; k < size; k++) {
            int code = literals[k], variable = code >> 1;
            CHECK_CODE(&state, code);
            if (marks[variable] || level[variable] == 0)
                continue;
            marks[variable] = 1;
            double activity;
            if (bump_variable(&state, variable, var_inc, &activity) < 0)
                goto error;
            if (activity > ACTIVITY_LIMIT) {
                double *act = DOUBLES(state.table[ACT]);
                for (Py_ssize_t i = 0; i < state.variables; i++)
                    act[i] *= ACTIVITY_RESCALE;
                var_inc *= ACTIVITY_RESCALE;
            }
            if (level[variable] == current_level)
                counter++;
            else
                learned[count++] = code;
        }
        /* Find the next marked literal on the trail to resolve. */
        int variable;
        for (;;) {
            if (trail_index < 0) {
                PyErr_SetString(PyExc_RuntimeError, "conflict analysis ran off the trail");
                goto error;
            }
            uip = INTS(trail)[trail_index--];
            CHECK_CODE(&state, uip);
            variable = uip >> 1;
            if (marks[variable] && level[variable] == current_level)
                break;
        }
        if (--counter == 0)
            break;
        clause = INTS(state.table[REASON])[variable];
    }
    if (set_object(solver, VAR_INC, PyFloat_FromDouble(var_inc)) < 0)
        goto error;
    /* Every marked variable is in the learned clause or on the trail from
     * the first UIP up. */
    for (Py_ssize_t i = 1; i < count; i++)
        marks[learned[i] >> 1] = 0;
    for (Py_ssize_t i = trail_index + 1; i < LEN(trail); i++)
        marks[INTS(trail)[i] >> 1] = 0;
    learned[0] = uip ^ 1;
    Py_ssize_t backjump = 0, deepest = 1, distinct = 1;
    for (Py_ssize_t i = 0; i < count; i++) {
        levels[i] = level[learned[i] >> 1];
        if (i >= 1 && (i == 1 || levels[i] > backjump)) {
            backjump = levels[i];
            deepest = i;
        }
    }
    if (count > 1) {
        int second = learned[1];
        learned[1] = learned[deepest];
        learned[deepest] = second;
        qsort(levels, count, sizeof *levels, by_value);
        for (Py_ssize_t i = 1; i < count; i++)
            distinct += levels[i] != levels[i - 1];
    }
    PyObject *clause_list = PyList_New(count);
    for (Py_ssize_t i = 0; clause_list != NULL && i < count; i++) {
        PyObject *code = PyLong_FromLong(learned[i]);
        if (code == NULL)
            Py_CLEAR(clause_list);
        else
            PyList_SET_ITEM(clause_list, i, code);
    }
    if (clause_list != NULL)
        result = Py_BuildValue("(Nnn)", clause_list, backjump, distinct);
error:
    PyMem_Free(learned);
    PyMem_Free(levels);
    release(&state);
    return result;
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
    Py_ssize_t count = PyList_GET_SIZE(items), kept = 0;
    *tautology = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *integer = PyNumber_Index(PyList_GET_ITEM(items, i));
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

/* Store the clause of `count` >= 2 checked codes in the arena and _problem; watch it. */
static int store(State *state, const int *codes, Py_ssize_t count)
{
    Array *arena = state->table[ARENA];
    Py_ssize_t offset = LEN(arena) + 2;
    if (offset + count > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "the clause arena is full");
        return -1;
    }
    if (resize(arena, offset + count) < 0 || push(state->table[PROBLEM], (int)offset) < 0)
        return -1;
    INTS(arena)[offset - 2] = (int)count;
    INTS(arena)[offset - 1] = -1;
    memcpy(INTS(arena) + offset, codes, count * sizeof(int));
    int first = codes[0], second = codes[1];
    if (count == 2)
        return append_pair(&state->binary, first, second, (int)offset) < 0
               || append_pair(&state->binary, second, first, (int)offset) < 0 ? -1 : 0;
    return append_pair(&state->watches, first, (int)offset, second) < 0
           || append_pair(&state->watches, second, (int)offset, first) < 0 ? -1 : 0;
}

/* Add a clause at decision level 0. */
static PyObject *add_clause(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_args("add_clause", nargs, 2) < 0)
        return NULL;
    PyObject *solver = args[0], *items = NULL, *result = NULL;
    Py_ssize_t *literals = NULL;
    int *codes = NULL, tautology;
    State state = {.count = 0};
    PyObject *limits = PyObject_GetAttr(solver, name[LIMITS]);
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
    Py_ssize_t count = PyList_GET_SIZE(items), kept = 0;
    literals = PyMem_New(Py_ssize_t, count ? count : 1);
    codes = PyMem_New(int, count ? count : 1);
    if (literals == NULL || codes == NULL) {
        PyErr_NoMemory();
        goto out;
    }
    count = normalise(items, literals, &tautology);
    if (count < 0)
        goto out;
    if (tautology)
        goto done;
    Py_ssize_t top = count ? Py_ABS(literals[count - 1]) : 0;
    Py_ssize_t num_vars = get_size(solver, NUM_VARS);
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
    if (fetch(&state, solver) < 0)
        goto out;
    /* At level 0 every assignment is permanent: drop false literals and skip
     * the clause if one is already true. */
    signed char *value = BYTES(state.table[VALUE]);
    for (Py_ssize_t i = 0; i < count; i++) {
        Py_ssize_t variable = Py_ABS(literals[i]);
        if (variable >= state.variables) {
            PyErr_SetString(PyExc_IndexError, "a literal is outside the value table");
            goto out;
        }
        int code = (int)(literals[i] > 0 ? variable << 1 : (variable << 1) | 1);
        if (value[code] == 1)
            goto done;
        if (value[code] == -1)
            codes[kept++] = code;
    }
    if (kept == 0) {
        if (PyObject_SetAttr(solver, name[UNSAT], Py_True) < 0)
            goto out;
    }
    else if (kept == 1) {
        /* A unit: enqueue it at level 0, then propagate. */
        long conflict = assign(&state, codes[0], 0, -1) < 0 ? -2 : run_propagate(solver, &state);
        if (conflict == -2 || (conflict >= 0 && PyObject_SetAttr(solver, name[UNSAT], Py_True) < 0))
            goto out;
    }
    else if (store(&state, codes, kept) < 0)
        goto out;
done:
    result = Py_None;
    Py_INCREF(result);
out:
    release(&state);
    PyMem_Free(literals);
    PyMem_Free(codes);
    Py_DECREF(items);
    return result;
}

/* Swap-remove `clause` from the watch list of `code`. */
static PyObject *unwatch(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    State state;
    if (check_args("unwatch", nargs, 3) < 0)
        return NULL;
    Py_ssize_t code = PyLong_AsSsize_t(args[1]);
    long clause = code == -1 && PyErr_Occurred() ? -1 : PyLong_AsLong(args[2]);
    if (PyErr_Occurred() || fetch(&state, args[0]) < 0)
        return NULL;
    Py_ssize_t begin, end;
    CHECK_CODE(&state, code);
    if (segment(&state.watches, code, &begin, &end) < 0)
        goto error;
    int *items = INTS(state.watches.items);
    for (Py_ssize_t i = begin; i < end; i += 2) {
        if (items[i] != clause)
            continue;
        items[i] = items[end - 2];
        items[i + 1] = items[end - 1];
        INTS(state.watches.size)[code] -= 2;
        release(&state);
        Py_RETURN_NONE;
    }
    PyErr_SetString(PyExc_RuntimeError, "internal solver error: clause missing from watch list");
error:
    release(&state);
    return NULL;
}

static PyMethodDef kernel_methods[] = {
    {"propagate", (PyCFunction)(void (*)(void))propagate, METH_FASTCALL,
     "propagate(solver) -> conflict offset or -1; mirrors CdclSolver._propagate."},
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

/* Whether array.array's layout is the one `Array` reads, checked on a live array. */
static int check_layout(void)
{
    PyObject *module = PyImport_ImportModule("array");
    array_type = module == NULL ? NULL : (PyTypeObject *)PyObject_GetAttrString(module, "array");
    Py_XDECREF(module);
    PyObject *probe = array_type == NULL ? NULL
                    : PyObject_CallFunction((PyObject *)array_type, "s(iii)", "i", 7, 8, 9);
    Array *array = (Array *)probe;
    Py_buffer view;
    int same = probe != NULL && PyObject_GetBuffer(probe, &view, PyBUF_FULL_RO) == 0;
    if (same) {
        same = view.buf == array->items && view.len == 3 * sizeof(int) && LEN(array) == 3
               && array->allocated >= 3 && array->descr->typecode == 'i'
               && array->descr->itemsize == sizeof(int) && array->exports == 1
               && INTS(array)[2] == 9;
        PyBuffer_Release(&view);
        same = same && array->exports == 0;
    }
    Py_XDECREF(probe);
    if (same)
        return 0;
    PyErr_Clear();
    PyErr_SetString(PyExc_ImportError, "array.array's layout is not the one this kernel reads");
    return -1;
}

PyMODINIT_FUNC PyInit__kernel(void)
{
    for (int i = 0; i < NAMES; i++)
        if ((name[i] = PyUnicode_InternFromString(names[i])) == NULL)
            return NULL;
    if (check_layout() < 0)
        return NULL;
    return PyModule_Create(&kernel_module);
}
