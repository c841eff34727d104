/* The CDCL solver's search in C: one call per query, one per block of clauses.
 *
 * Each entry point mirrors Python methods of repro/sat/solver.py and
 * repro/sat/heap.py step for step, and those methods stay the reference:
 *
 *   solve(solver, codes)           CdclSolver._search, with _propagate, _backtrack,
 *                                  _analyze, _handle_learned, _enqueue,
 *                                  _next_restart_limit and ActivityHeap's
 *                                  pop_unassigned, push_many and clear
 *   add_clauses(solver, clauses)   CdclSolver._add_clause per clause, _watch_clause
 *   unwatch(solver, code, clause)  CdclSolver._unwatch
 *
 * They edit the solver's typed arrays (array.array: the clause arena, the
 * value, level, reason, phase, trail and clause tables, the PairLists pools
 * and the heap's tables; _seen is a bytearray) exactly as the Python methods
 * do.  A call fetches every table once, checks its type and that the
 * per-variable tables agree in length, and checks every code, offset and
 * position it reads against the table it indexes, so a broken solver state
 * raises instead of reading or writing out of bounds.  It reads the solver's
 * scalars (queue head, increments, counters) once and writes them back
 * before it returns or raises and before it calls back into Python
 * (_reduce_db, _ensure_vars, a literal's __index__), after which it fetches
 * again; after a signal handler ran it checks the table lengths again.
 *
 * Growing tables are resized by array.array's own rule through its object
 * layout (a buffer view would pin their size); module initialisation checks
 * that layout on a live array.  repro/sat/native.py builds and loads this file.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <limits.h>
#include <math.h>
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
static PyObject *every_variable; /* slice(2, None, 2): value[2::2] */

/* Attribute names: the solver's tables, its pools' and its heap's, the
 * SolverStats counters, then the rest. */
enum {
    ARENA, PROBLEM, LEARNED, LBD, TRAIL, LIMITS, VALUE, LEVEL, REASON, PHASE, ACTIVITY, TABLES,
    ITEMS = TABLES, START, SIZE, CAPACITY,
    ORDER, POS, ACT,
    CONFLICTS, DECISIONS, PROPAGATIONS, RESTARTS, LEARNED_CLAUSES, MAX_TRAIL,
    WATCHES, BINARY, HEAP, SEEN, STATS, QUEUE_HEAD, RESTARTS_SCHEDULED, NUM_VARS, VAR_INC,
    CLAUSE_INC, UNSAT, REDUCE_LIMIT, REDUCE_DB, CONFIG, VAR_DECAY, CLAUSE_DECAY,
    RESTART_POLICY, RESTART_BASE, RESTART_GROWTH, NAMES
};
static const char *const names[NAMES] = {
    "_arena", "_problem", "_learned", "_lbd", "_trail", "_trail_limits", "_value", "_level",
    "_reason", "_phase", "_activity", "items", "start", "size", "capacity", "_heap", "_pos", "_act",
    "conflicts", "decisions", "propagations", "restarts", "learned_clauses", "max_trail",
    "_watches", "_binary", "_heap", "_seen", "_stats", "_queue_head", "_restarts_scheduled",
    "_num_vars", "_var_inc", "_clause_inc", "_unsat", "_reduce_limit", "_reduce_db", "config",
    "var_decay", "clause_decay", "restart_policy", "restart_base", "restart_growth",
};
/* The typecode of each table, by name index. */
static const char typecodes[] = "iiiiiibiibdiiiiiid";
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

/* The tables and scalars one call works on, with the references that keep them alive. */
typedef struct {
    Array *table[ACT + 1];   /* by name: ARENA..ACTIVITY and ORDER..ACT */
    Pool watches, binary;
    PyObject *seen, *stats, *owned[32];
    int count, loaded;
    char *marks;             /* _seen's buffer */
    int *buffer;             /* analyze's learned clause and levels */
    Py_ssize_t codes, variables;
    /* Loaded by load(), written back by save(). */
    Py_ssize_t head, scheduled, num_vars, counter[MAX_TRAIL - CONFLICTS + 1];
    double var_inc, clause_inc;
    double var_decay, clause_decay, base, growth;
    int luby;
} State;

#define COUNTER(state, which) ((state)->counter[(which) - CONFLICTS])

static void release(State *state)
{
    for (int i = 0; i < state->count; i++)
        Py_DECREF(state->owned[i]);
    state->count = state->loaded = 0;
    PyMem_Free(state->buffer);
    state->buffer = NULL;
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

static int out_of_range(const char *what, long index)
{
    PyErr_Format(PyExc_IndexError, "%s %ld is out of range", what, index);
    return -1;
}

/* owner.<name> into *integer, or into *real when integer is NULL. */
static int get(PyObject *owner, int which, Py_ssize_t *integer, double *real)
{
    PyObject *number = PyObject_GetAttr(owner, name[which]);
    if (number == NULL)
        return -1;
    if (integer != NULL)
        *integer = PyLong_AsSsize_t(number);
    else
        *real = PyFloat_AsDouble(number);
    Py_DECREF(number);
    return PyErr_Occurred() ? -1 : 0;
}

/* The solver's scalars and SolverConfig's knobs into `state`. */
static int load(State *state, PyObject *solver)
{
    PyObject *knobs, *policy;
    if ((state->stats = attribute(state, solver, STATS)) == NULL
        || (knobs = attribute(state, solver, CONFIG)) == NULL
        || (policy = attribute(state, knobs, RESTART_POLICY)) == NULL
        || get(knobs, VAR_DECAY, NULL, &state->var_decay) < 0
        || get(knobs, CLAUSE_DECAY, NULL, &state->clause_decay) < 0
        || get(knobs, RESTART_BASE, NULL, &state->base) < 0
        || get(knobs, RESTART_GROWTH, NULL, &state->growth) < 0
        || get(solver, QUEUE_HEAD, &state->head, NULL) < 0
        || (state->head < 0 && out_of_range("queue head", (long)state->head) < 0)
        || get(solver, RESTARTS_SCHEDULED, &state->scheduled, NULL) < 0
        || get(solver, NUM_VARS, &state->num_vars, NULL) < 0
        || get(solver, VAR_INC, NULL, &state->var_inc) < 0
        || get(solver, CLAUSE_INC, NULL, &state->clause_inc) < 0)
        return -1;
    for (int which = CONFLICTS; which <= MAX_TRAIL; which++)
        if (get(state->stats, which, &COUNTER(state, which), NULL) < 0)
            return -1;
    state->luby = PyUnicode_Check(policy) && PyUnicode_CompareWithASCIIString(policy, "luby") == 0;
    state->loaded = 1;
    return 0;
}

/* Whether the fixed-size tables agree on the number of variables; takes _seen's buffer. */
static int agrees(State *state)
{
    Py_ssize_t variables = LEN(state->table[ACT]), codes = state->codes = LEN(state->table[VALUE]);
    if (variables != state->variables) {
        PyMem_Free(state->buffer); /* sized by the variable count */
        state->buffer = NULL;
        state->variables = variables;
    }
    if (codes == 2 * variables && LEN(state->table[POS]) == variables
        && LEN(state->table[LEVEL]) == variables && LEN(state->table[REASON]) == variables
        && LEN(state->table[PHASE]) == variables && PyByteArray_GET_SIZE(state->seen) == variables
        && LEN(state->watches.start) == codes && LEN(state->watches.size) == codes
        && LEN(state->watches.capacity) == codes && LEN(state->binary.start) == codes
        && LEN(state->binary.size) == codes && LEN(state->binary.capacity) == codes) {
        state->marks = PyByteArray_AS_STRING(state->seen);
        return 0;
    }
    PyErr_SetString(PyExc_ValueError, "solver tables disagree on the number of variables");
    return -1;
}

/* Every table of `solver`, checked to agree on the number of variables, and
 * with `scalars` its scalars: 0, or -1 with an exception and nothing held. */
static int fetch(State *state, PyObject *solver, int scalars)
{
    PyObject *heap;
    state->count = state->loaded = 0;
    state->buffer = NULL;
    state->variables = -1;
    for (int which = ARENA; which < TABLES; which++)
        if ((state->table[which] = table(state, solver, which)) == NULL)
            goto error;
    if (fetch_pool(state, solver, WATCHES, &state->watches) < 0
        || fetch_pool(state, solver, BINARY, &state->binary) < 0
        || (heap = attribute(state, solver, HEAP)) == NULL
        || (state->seen = attribute(state, solver, SEEN)) == NULL)
        goto error;
    for (int which = ORDER; which <= ACT; which++)
        if ((state->table[which] = table(state, heap, which)) == NULL)
            goto error;
    if (!PyByteArray_Check(state->seen))
        PyErr_SetString(PyExc_TypeError, "_seen must be a bytearray");
    else if (agrees(state) == 0 && (!scalars || load(state, solver) == 0))
        return 0;
error:
    release(state);
    return -1;
}

static int set_object(PyObject *owner, int which, PyObject *item)
{
    int status = item == NULL ? -1 : PyObject_SetAttr(owner, name[which], item);
    Py_XDECREF(item);
    return status;
}

/* Write the loaded scalars back to the solver; an exception already set is kept. */
static int save(State *state, PyObject *solver)
{
    if (!state->loaded)
        return PyErr_Occurred() ? -1 : 0;
    PyObject *type, *error, *traceback;
    PyErr_Fetch(&type, &error, &traceback);
    int failed = set_object(solver, QUEUE_HEAD, PyLong_FromSsize_t(state->head)) < 0
                 || set_object(solver, RESTARTS_SCHEDULED, PyLong_FromSsize_t(state->scheduled)) < 0
                 || set_object(solver, VAR_INC, PyFloat_FromDouble(state->var_inc)) < 0
                 || set_object(solver, CLAUSE_INC, PyFloat_FromDouble(state->clause_inc)) < 0;
    for (int which = CONFLICTS; !failed && which <= MAX_TRAIL; which++)
        failed = set_object(state->stats, which, PyLong_FromSsize_t(COUNTER(state, which))) < 0;
    if (type == NULL)
        return failed ? -1 : 0;
    PyErr_Restore(type, error, traceback);
    return -1;
}

/* save() and release(): `result`, or NULL with an exception. */
static PyObject *finish(State *state, PyObject *solver, PyObject *result)
{
    if (save(state, solver) < 0)
        Py_CLEAR(result);
    release(state);
    return result;
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

/* _enqueue of the checked `code`: 1 if it is true or gets assigned, 0 if false, or -1. */
static int enqueue(State *state, int code, int reason)
{
    signed char current = BYTES(state->table[VALUE])[code];
    if (current != -1)
        return current == 1;
    return assign(state, code, (int)LEN(state->table[LIMITS]), reason) < 0 ? -1 : 1;
}

static int check_args(const char *function, Py_ssize_t nargs, Py_ssize_t expected)
{
    if (nargs == expected)
        return 0;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)", function, expected,
                 nargs);
    return -1;
}

/* propagate()'s error return: no clause offset, not even a corrupt one, is this. */
#define RAISED LONG_MIN

/* Unit propagation from the queue head: the conflicting clause's offset, -1
 * for none, RAISED with an exception. */
static long propagate(State *state)
{
    Array *trail = state->table[TRAIL];
    const Pool *watches = &state->watches, *binary = &state->binary;
    signed char *value = BYTES(state->table[VALUE]);
    /* Propagation never opens a decision level, so this is loop-invariant. */
    int level = (int)LEN(state->table[LIMITS]);
    long conflict = -1;
    Py_ssize_t head = state->head, begin, end;
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
done:
    /* The Python method's `finally`: store the queue head, count the work. */
    COUNTER(state, PROPAGATIONS) += head - state->head;
    state->head = head;
    return conflict;
error:
    conflict = RAISED;
    goto done;
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
static int backtrack(State *state, Py_ssize_t level)
{
    Array *trail = state->table[TRAIL], *limits = state->table[LIMITS];
    if (LEN(limits) <= level)
        return 0;
    Py_ssize_t size = LEN(trail), limit = INTS(limits)[level];
    if ((size_t)limit > (size_t)size)
        return out_of_range("trail limit", limit);
    for (Py_ssize_t i = limit; i < size; i++) {
        int code = INTS(trail)[i];
        if ((size_t)code >= (size_t)state->codes)
            return out_of_range("literal code", code);
        BYTES(state->table[VALUE])[code] = -1;
        BYTES(state->table[VALUE])[code ^ 1] = -1;
        INTS(state->table[REASON])[code >> 1] = -1;
    }
    for (Py_ssize_t i = limit; i < size; i++)
        if (push_variable(state, INTS(trail)[i] >> 1) < 0)
            return -1;
    if (state->head > limit)
        state->head = limit;
    return resize(trail, limit) < 0 || resize(limits, level) < 0 ? -1 : 0;
}

/* Pop maximum-activity variables until one is unassigned: the variable, -1
 * when the heap runs empty, -2 with an exception. */
static int pop_unassigned(State *state)
{
    Array *order = state->table[ORDER];
    int *pos = INTS(state->table[POS]);
    double *act = DOUBLES(state->table[ACT]);
    while (LEN(order) > 0) {
        int *heap = INTS(order), top = heap[0];
        Py_ssize_t size = LEN(order) - 1, position = 0, child_position = 1;
        int last = heap[size];
        if ((size_t)top >= (size_t)state->variables || (size_t)last >= (size_t)state->variables)
            goto error;
        pos[top] = -1;
        if (resize(order, size) < 0)
            return -2;
        if (size) {
            double activity = act[last];
            while (child_position < size) {
                Py_ssize_t right = child_position + 1;
                int child = heap[child_position], other = right < size ? heap[right] : 0;
                if ((size_t)child >= (size_t)state->variables
                    || (size_t)other >= (size_t)state->variables)
                    goto error;
                if (right < size && act[other] > act[child]) {
                    child_position = right;
                    child = other;
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
        if (BYTES(state->table[VALUE])[2 * top] == -1)
            return top;
    }
    return -1;
error:
    PyErr_SetString(PyExc_IndexError, "a heap variable is out of range");
    return -2;
}

/* ActivityHeap.clear: empty the heap, keep every activity. */
static int clear_heap(State *state)
{
    Array *order = state->table[ORDER];
    for (Py_ssize_t i = 0; i < LEN(order); i++) {
        int variable = INTS(order)[i];
        if ((size_t)variable >= (size_t)state->variables)
            return out_of_range("heap variable", variable);
        INTS(state->table[POS])[variable] = -1;
    }
    return resize(order, 0);
}

/* _analyze's learned-clause bump, with its rescale over every learned clause. */
static int bump_clause(State *state, int index)
{
    Array *activity = state->table[ACTIVITY];
    if (index >= LEN(activity))
        return out_of_range("learned clause index", index);
    double *activities = DOUBLES(activity);
    activities[index] += state->clause_inc;
    if (activities[index] > CLAUSE_ACTIVITY_LIMIT) {
        for (Py_ssize_t i = 0; i < LEN(activity); i++)
            activities[i] *= CLAUSE_ACTIVITY_RESCALE;
        state->clause_inc *= CLAUSE_ACTIVITY_RESCALE;
    }
    return 0;
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

/* First-UIP analysis: learned clause in state->buffer[0, *count), backjump level, LBD. */
static int analyze(State *state, long clause, Py_ssize_t *count, Py_ssize_t *backjump,
                   Py_ssize_t *lbd)
{
    if (state->buffer == NULL
        && (state->buffer = PyMem_New(int, 2 * (state->variables + 1))) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    int *learned = state->buffer, *levels = learned + state->variables + 1, uip = 0;
    Array *trail = state->table[TRAIL];
    int *level = INTS(state->table[LEVEL]);
    char *marks = state->marks;
    double var_inc = state->var_inc;
    Py_ssize_t current_level = LEN(state->table[LIMITS]), counter = 0, size;
    Py_ssize_t trail_index = LEN(trail) - 1;
    *count = 1;
    for (;;) {
        int *literals = clause_at(state, clause, 1, &size);
        if (literals == NULL || (literals[-1] >= 0 && bump_clause(state, literals[-1]) < 0))
            return -1;
        for (Py_ssize_t k = 0; k < size; k++) {
            int code = literals[k], variable = code >> 1;
            CHECK_CODE(state, code);
            if (marks[variable] || level[variable] == 0)
                continue;
            marks[variable] = 1;
            double activity;
            if (bump_variable(state, variable, var_inc, &activity) < 0)
                return -1;
            if (activity > ACTIVITY_LIMIT) {
                double *act = DOUBLES(state->table[ACT]);
                for (Py_ssize_t i = 0; i < state->variables; i++)
                    act[i] *= ACTIVITY_RESCALE;
                var_inc *= ACTIVITY_RESCALE;
            }
            if (level[variable] == current_level)
                counter++;
            else
                learned[(*count)++] = code;
        }
        /* Find the next marked literal on the trail to resolve. */
        int variable;
        for (;;) {
            if (trail_index < 0) {
                PyErr_SetString(PyExc_RuntimeError, "conflict analysis ran off the trail");
                return -1;
            }
            uip = INTS(trail)[trail_index--];
            CHECK_CODE(state, uip);
            variable = uip >> 1;
            if (marks[variable] && level[variable] == current_level)
                break;
        }
        if (--counter == 0)
            break;
        clause = INTS(state->table[REASON])[variable];
    }
    state->var_inc = var_inc;
    /* Every marked variable is in the learned clause or on the trail from
     * the first UIP up. */
    for (Py_ssize_t i = 1; i < *count; i++)
        marks[learned[i] >> 1] = 0;
    for (Py_ssize_t i = trail_index + 1; i < LEN(trail); i++)
        marks[INTS(trail)[i] >> 1] = 0;
    learned[0] = uip ^ 1;
    Py_ssize_t deepest = 1;
    *backjump = 0;
    *lbd = 1;
    for (Py_ssize_t i = 0; i < *count; i++) {
        levels[i] = level[learned[i] >> 1];
        if (i >= 1 && (i == 1 || levels[i] > *backjump)) {
            *backjump = levels[i];
            deepest = i;
        }
    }
    if (*count > 1) {
        int second = learned[1];
        learned[1] = learned[deepest];
        learned[deepest] = second;
        qsort(levels, *count, sizeof *levels, by_value);
        for (Py_ssize_t i = 1; i < *count; i++)
            *lbd += levels[i] != levels[i - 1];
    }
    return 0;
error:
    return -1;
}

/* Store `count` >= 2 checked codes in the arena and watch them: the offset, or -1. */
static int attach(State *state, const int *codes, Py_ssize_t count, int learned_index)
{
    Array *arena = state->table[ARENA];
    Py_ssize_t offset = LEN(arena) + 2;
    if (offset + count > INT_MAX) {
        PyErr_SetString(PyExc_OverflowError, "the clause arena is full");
        return -1;
    }
    if (resize(arena, offset + count) < 0)
        return -1;
    INTS(arena)[offset - 2] = (int)count;
    INTS(arena)[offset - 1] = learned_index;
    memcpy(INTS(arena) + offset, codes, count * sizeof(int));
    int first = codes[0], second = codes[1], status;
    if (count == 2)
        status = append_pair(&state->binary, first, second, (int)offset) < 0
                 || append_pair(&state->binary, second, first, (int)offset) < 0;
    else
        status = append_pair(&state->watches, first, (int)offset, second) < 0
                 || append_pair(&state->watches, second, (int)offset, first) < 0;
    return status ? -1 : (int)offset;
}

/* _handle_learned: store analyze()'s clause, assert its first literal; as enqueue(). */
static int learn(State *state, Py_ssize_t count, Py_ssize_t lbd)
{
    const int *learned = state->buffer;
    Array *activity = state->table[ACTIVITY];
    Py_ssize_t size = LEN(activity);
    int offset = -1;
    COUNTER(state, LEARNED_CLAUSES)++;
    if (count > 1) {
        if ((offset = attach(state, learned, count, (int)LEN(state->table[LEARNED]))) < 0
            || push(state->table[LEARNED], offset) < 0 || push(state->table[LBD], (int)lbd) < 0
            || resize(activity, size + 1) < 0)
            return -1;
        DOUBLES(activity)[size] = state->clause_inc;
    }
    return enqueue(state, learned[0], offset);
}

/* _next_restart_limit: conflicts allowed before the next restart. */
static double next_limit(State *state)
{
    Py_ssize_t index = state->scheduled++, size = 1, height = 0;
    if (!state->luby)
        return trunc(state->base * pow(state->growth, (double)index));
    for (; size < index + 1; height++)
        size = 2 * size + 1;
    for (; size - 1 != index; height--) {
        size = (size - 1) >> 1;
        index %= size;
    }
    return state->base * (double)((Py_ssize_t)1 << height);
}

/* At a restart: _reduce_db once _learned reaches _reduce_limit, then fetch again. */
static int reduce(State *state, PyObject *solver)
{
    Py_ssize_t limit;
    if (get(solver, REDUCE_LIMIT, &limit, NULL) < 0)
        return -1;
    if (LEN(state->table[LEARNED]) < limit)
        return 0;
    PyObject *deleted = save(state, solver) < 0 ? NULL
                      : PyObject_CallMethodNoArgs(solver, name[REDUCE_DB]);
    if (deleted == NULL)
        return -1;
    Py_DECREF(deleted);
    release(state);
    return fetch(state, solver, 1);
}

/* CdclSolver._search: a model's values (value[2::2]), None for none, or NULL. */
static PyObject *search(State *state, PyObject *solver, Array *assumed)
{
    Py_ssize_t learned, backjump, lbd, since = 0;
    long conflict;
    if (backtrack(state, 0) < 0 || (conflict = propagate(state)) == RAISED)
        return NULL;
    if (conflict >= 0)
        return PyObject_SetAttr(solver, name[UNSAT], Py_True) < 0 ? NULL : Py_NewRef(Py_None);
    state->scheduled = 0; /* each query restarts the schedule */
    double limit = next_limit(state);
    for (;;) {
        if ((conflict = propagate(state)) == RAISED)
            return NULL;
        Array *trail = state->table[TRAIL], *limits = state->table[LIMITS];
        if (conflict >= 0) {
            COUNTER(state, CONFLICTS)++;
            since++;
            if (LEN(limits) == 0)
                return PyObject_SetAttr(solver, name[UNSAT], Py_True) < 0 ? NULL
                                                                           : Py_NewRef(Py_None);
            /* A signal handler is Python code: it may have resized a table. */
            if (PyErr_CheckSignals() < 0 || agrees(state) < 0
                || analyze(state, conflict, &learned, &backjump, &lbd) < 0
                || backtrack(state, backjump) < 0)
                return NULL;
            int asserted = learn(state, learned, lbd);
            if (asserted <= 0)
                return asserted < 0 || backtrack(state, 0) < 0 ? NULL : Py_NewRef(Py_None);
            state->var_inc *= 1.0 / state->var_decay;
            state->clause_inc *= 1.0 / state->clause_decay;
            if (since >= limit) {
                COUNTER(state, RESTARTS)++;
                since = 0;
                limit = next_limit(state);
                if (backtrack(state, 0) < 0 || reduce(state, solver) < 0)
                    return NULL;
            }
            continue;
        }
        /* Re-establish assumptions after any backtracking: the first one not
         * yet true is decided next, or proves the query UNSAT. */
        signed char *value = BYTES(state->table[VALUE]), current = 1;
        int code = 0;
        for (Py_ssize_t i = 0; i < LEN(assumed) && current == 1; i++) {
            if ((size_t)(code = INTS(assumed)[i]) >= (size_t)state->codes)
                return out_of_range("literal code", code), NULL;
            current = value[code];
        }
        if (current == 0)
            return backtrack(state, 0) < 0 ? NULL : Py_NewRef(Py_None);
        if (current != -1) {
            /* With every variable assigned, popping would only drain the heap. */
            int variable = LEN(trail) == state->variables - 1 ? clear_heap(state) - 1
                                                              : pop_unassigned(state);
            if (variable == -2)
                return NULL;
            if (LEN(trail) > COUNTER(state, MAX_TRAIL))
                COUNTER(state, MAX_TRAIL) = LEN(trail);
            if (variable == -1) {
                PyObject *values = PyObject_GetItem((PyObject *)state->table[VALUE],
                                                    every_variable);
                if (values != NULL && backtrack(state, 0) < 0)
                    Py_CLEAR(values);
                return values;
            }
            COUNTER(state, DECISIONS)++;
            code = (variable << 1) | BYTES(state->table[PHASE])[variable];
        }
        /* Decide the assumption, or the variable in its saved phase. */
        if ((size_t)code >= (size_t)state->codes)
            return out_of_range("literal code", code), NULL;
        if (push(limits, (int)LEN(trail)) < 0 || enqueue(state, code, -1) < 0)
            return NULL;
    }
}

/* Solve under the assumption `codes`, an array('i'): as search(). */
static PyObject *solve(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    State state;
    if (check_args("solve", nargs, 2) < 0)
        return NULL;
    if (!Py_IS_TYPE(args[1], array_type) || ((Array *)args[1])->descr->typecode != 'i') {
        PyErr_SetString(PyExc_TypeError, "codes must be an array('i')");
        return NULL;
    }
    if (fetch(&state, args[0], 1) < 0)
        return NULL;
    return finish(&state, args[0], search(&state, args[0], (Array *)args[1]));
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
 * method, a 0 raises before a tautology is looked for.  *foreign is set when
 * a literal is not an int, so its __index__ may have run Python code. */
static Py_ssize_t normalise(PyObject *items, Py_ssize_t *out, int *tautology, int *foreign)
{
    Py_ssize_t count = PyList_GET_SIZE(items), kept = 0;
    *tautology = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        PyObject *item = PyList_GET_ITEM(items, i), *integer = PyNumber_Index(item);
        *foreign |= !PyLong_CheckExact(item);
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

/* Add one normalised clause at decision level 0 (the rest of _add_clause). */
static int add_literals(State *state, PyObject *solver, const Py_ssize_t *literals,
                        Py_ssize_t count, int *codes)
{
    /* At level 0 every assignment is permanent: drop false literals and skip
     * the clause if one is already true. */
    signed char *value = BYTES(state->table[VALUE]);
    Py_ssize_t kept = 0;
    for (Py_ssize_t i = 0; i < count; i++) {
        Py_ssize_t variable = Py_ABS(literals[i]);
        if (variable >= state->variables) {
            PyErr_SetString(PyExc_IndexError, "a literal is outside the value table");
            return -1;
        }
        int code = (int)(literals[i] > 0 ? variable << 1 : (variable << 1) | 1);
        if (value[code] == 1)
            return 0;
        if (value[code] == -1)
            codes[kept++] = code;
    }
    if (kept == 0)
        return PyObject_SetAttr(solver, name[UNSAT], Py_True);
    if (kept == 1) {
        /* A unit: enqueue it at level 0, then propagate. */
        long conflict = assign(state, codes[0], 0, -1) < 0 ? RAISED : propagate(state);
        return conflict == RAISED ? -1
               : conflict >= 0 ? PyObject_SetAttr(solver, name[UNSAT], Py_True) : 0;
    }
    int offset = attach(state, codes, kept, -1);
    return offset < 0 ? -1 : push(state->table[PROBLEM], offset);
}

/* Add clauses at decision level 0, in order, each as CdclSolver._add_clause does:
 * a clause that raises has changed nothing, and the clauses before it stay added. */
static PyObject *add_clauses(PyObject *module, PyObject *const *args, Py_ssize_t nargs)
{
    if (check_args("add_clauses", nargs, 2) < 0)
        return NULL;
    PyObject *solver = args[0], *clauses = PySequence_Tuple(args[1]), *result = NULL;
    Py_ssize_t *literals = NULL, room = 0;
    int *codes = NULL, tautology;
    State state;
    if (clauses == NULL || fetch(&state, solver, 1) < 0)
        goto out;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(clauses); i++) {
        if (LEN(state.table[LIMITS])) {
            PyErr_SetString(PyExc_RuntimeError, "clauses can only be added at decision level 0");
            goto done;
        }
        /* A private copy: an __index__ hook cannot resize it under normalise. */
        PyObject *clause = PyTuple_GET_ITEM(clauses, i), *items = PySequence_List(clause);
        if (items == NULL)
            goto done;
        Py_ssize_t count = PyList_GET_SIZE(items);
        if (count > room) { /* the literals, then their codes */
            PyMem_Free(literals);
            literals = PyMem_Malloc(count * (sizeof *literals + sizeof *codes));
            if ((room = literals == NULL ? 0 : count) == 0) {
                Py_DECREF(items);
                PyErr_NoMemory();
                goto done;
            }
            codes = (int *)(literals + count);
        }
        int foreign = !PyList_CheckExact(clause) && !PyTuple_CheckExact(clause);
        count = normalise(items, literals, &tautology, &foreign);
        Py_DECREF(items);
        if (count < 0)
            goto done;
        Py_ssize_t top = count ? Py_ABS(literals[count - 1]) : 0;
        if (foreign || top > state.num_vars) {
            /* Python code may have run, or the tables must grow: fetch them again after. */
            PyObject *grown = save(&state, solver) < 0 ? NULL
                            : top <= state.num_vars ? Py_NewRef(Py_None)
                            : PyObject_CallMethod(solver, "_ensure_vars", "n", top);
            if (grown == NULL)
                goto done;
            Py_DECREF(grown);
            release(&state);
            if (fetch(&state, solver, 1) < 0)
                goto out;
        }
        if (!tautology && add_literals(&state, solver, literals, count, codes) < 0)
            goto done;
    }
    result = Py_NewRef(Py_None);
done:
    result = finish(&state, solver, result);
out:
    PyMem_Free(literals);
    Py_XDECREF(clauses);
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
    if (PyErr_Occurred() || fetch(&state, args[0], 0) < 0)
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
    {"solve", (PyCFunction)(void (*)(void))solve, METH_FASTCALL,
     "solve(solver, codes) -> the model's values or None; mirrors CdclSolver._search."},
    {"add_clauses", (PyCFunction)(void (*)(void))add_clauses, METH_FASTCALL,
     "add_clauses(solver, clauses); mirrors CdclSolver._add_clause on each clause."},
    {"unwatch", (PyCFunction)(void (*)(void))unwatch, METH_FASTCALL,
     "unwatch(solver, code, clause); mirrors CdclSolver._unwatch."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT, "_kernel", "Native search of repro.sat.solver.CdclSolver.", -1,
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
    PyObject *two = PyLong_FromLong(2);
    every_variable = two == NULL ? NULL : PySlice_New(two, Py_None, two);
    Py_XDECREF(two);
    if (every_variable == NULL || check_layout() < 0)
        return NULL;
    return PyModule_Create(&kernel_module);
}
