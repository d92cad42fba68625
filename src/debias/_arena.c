/* The delivery loop of debias.coin.Arena.feed, compiled.
 *
 * feed(deliveries, label, kids, src, pairs, out) makes each (root, symbol
 * code) delivery of the iterator with everything it forwards, on the
 * session's own lists and dict, exactly as the Python loop of Arena.feed
 * does: the same node rules, the same depth-first, left-before-right order,
 * and the same values in every list.  That loop is the reference; see its
 * docstring for the rules.
 *
 * The iterator may run Python code that appends to the lists (a die's route
 * is built on a face's first use), so list storage is read through the list
 * on every access, never cached across a call.  Every root, symbol code and
 * child index is checked against the lists before use: a bad value raises.
 * A delivery and its cascade finish before the next item is pulled, so when
 * the iterator raises, the session is left as the Python loop leaves it.
 *
 * Node objects are shared as in the Python loop: a root's int comes from
 * its delivery and a left child's from its parent's child slot, so `src`
 * and `pairs` hold those ints, not new ones.  The right-child deliveries
 * waiting for a left subtree go on a C stack.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>

#define SIGNAL_CHECK_MASK 0xFFFF /* PyErr_CheckSignals once per 65,536 items */

typedef struct {
    Py_ssize_t node;
    long symbol;
} Waiting;

static PyObject *CODE[5]; /* the ints 0..4: every label code, and the symbol codes 1 and 2 */

/* A new reference to the int v. */
static PyObject *
code(long v)
{
    if (v < 0 || v >= 5)
        return PyLong_FromLong(v);
    Py_INCREF(CODE[v]);
    return CODE[v];
}

/* The label code of node i; -1 with an exception if i is out of range. */
static long
label_of(PyObject *label, Py_ssize_t i)
{
    if (i < 0 || i >= PyList_GET_SIZE(label)) {
        PyErr_Format(PyExc_IndexError, "node %zd is not in the arena", i);
        return -1;
    }
    PyObject *value = PyList_GET_ITEM(label, i);
    for (long c = 0; c < 5; c++)
        if (value == CODE[c]) /* the ints of the codes are shared, so this is the common case */
            return c;
    long c = PyLong_AsLong(value);
    if (c < 0 && !PyErr_Occurred())
        PyErr_Format(PyExc_ValueError, "node %zd has no label code: %ld", i, c);
    return c < 0 ? -1 : c;
}

/* *slot = kids[i]; -1 with an exception if i is out of range. */
static int
slot_of(PyObject *kids, Py_ssize_t i, long long *slot)
{
    if (i < 0 || i >= PyList_GET_SIZE(kids)) {
        PyErr_Format(PyExc_IndexError, "node %zd has no child slot", i);
        return -1;
    }
    *slot = PyLong_AsLongLong(PyList_GET_ITEM(kids, i));
    return (*slot == -1 && PyErr_Occurred()) ? -1 : 0;
}

/* list[i] = value, which is stolen; i was checked by label_of(). */
static int
set(PyObject *list, Py_ssize_t i, PyObject *value)
{
    if (value == NULL)
        return -1;
    PyObject *old = PyList_GET_ITEM(list, i);
    PyList_SET_ITEM(list, i, value);
    Py_DECREF(old);
    return 0;
}

/* list.append(value), which is stolen. */
static int
append(PyObject *list, PyObject *value)
{
    if (value == NULL)
        return -1;
    int err = PyList_Append(list, value);
    Py_DECREF(value);
    return err;
}

/* The int object of node i: `node` if the caller holds it, else a new one. */
static PyObject *
index_object(PyObject *node, Py_ssize_t i)
{
    if (node == NULL)
        return PyLong_FromSsize_t(i);
    Py_INCREF(node);
    return node;
}

/* pairs[i] = pairs.get(i, 0) + 1 */
static int
count_pair(PyObject *pairs, PyObject *node, Py_ssize_t i)
{
    PyObject *key = index_object(node, i);
    if (key == NULL)
        return -1;
    PyObject *old = PyDict_GetItemWithError(pairs, key);
    long long n = 0;
    if (old != NULL)
        n = PyLong_AsLongLong(old);
    int err = -1;
    if (!PyErr_Occurred()) {
        PyObject *value = PyLong_FromLongLong(n + 1);
        if (value != NULL) {
            err = PyDict_SetItem(pairs, key, value);
            Py_DECREF(value);
        }
    }
    Py_DECREF(key);
    return err;
}

/* (*stack)[top] = the delivery of y to node i, growing the stack if full. */
static int
push(Waiting **stack, size_t *room, size_t top, Py_ssize_t i, long y)
{
    if (top == *room) {
        size_t more = *room ? 2 * *room : 64;
        Waiting *grown = PyMem_Realloc(*stack, more * sizeof(Waiting));
        if (grown == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        *stack = grown;
        *room = more;
    }
    (*stack)[top] = (Waiting){i, y};
    return 0;
}

/* Deliver `symbol` to node i and everything it forwards.  `node` is the
 * int object of i (a new reference, released here) or NULL. */
static int
deliver(Py_ssize_t i, long symbol, PyObject *node, PyObject *label, PyObject *kids,
        PyObject *src, PyObject *pairs, PyObject *out, Waiting **stack, size_t *room)
{
    size_t top = 0;
    long long k;
    long held, y = symbol;
    for (;;) {
        if ((held = label_of(label, i)) < 0)
            goto fail;
        if (held == 0 || held > 2) { /* release any held bit, hold y */
            if (held && (append(out, code(held - 3)) < 0 ||
                         append(src, index_object(node, i)) < 0))
                goto fail;
            if (set(label, i, code(y)) < 0)
                goto fail;
        }
        else if (slot_of(kids, i, &k) < 0)
            goto fail;
        else if (k == -1) { /* a pair at the cap: counted, nothing forwarded */
            if (set(label, i, code(held == y ? 0 : 5 - held)) < 0 ||
                count_pair(pairs, node, i) < 0)
                goto fail;
        }
        else {
            PyObject *left;
            if (k < 0) { /* its first pair: make its children, one level less room each */
                Py_ssize_t n = PyList_GET_SIZE(label);
                PyObject *slot = PyLong_FromLongLong(k + 1);
                if (slot == NULL)
                    goto fail;
                int err = PyList_Append(kids, slot) < 0 || PyList_Append(kids, slot) < 0;
                Py_DECREF(slot);
                if (err || PyList_Append(label, CODE[0]) < 0 ||
                    PyList_Append(label, CODE[0]) < 0)
                    goto fail;
                left = PyLong_FromSsize_t(n);
                if (left == NULL)
                    goto fail;
                Py_INCREF(left);
                if (set(kids, i, left) < 0) {
                    Py_DECREF(left);
                    goto fail;
                }
                k = n;
            }
            else if (k < PyList_GET_SIZE(label) - 1) {
                left = PyList_GET_ITEM(kids, i);
                Py_INCREF(left);
            }
            else {
                PyErr_Format(PyExc_IndexError, "node %zd has children outside the arena", i);
                goto fail;
            }
            long right = label_of(label, (Py_ssize_t)k + 1);
            if (right < 0) {
                Py_DECREF(left);
                goto fail;
            }
            int err;
            if (held == y) { /* equal pair: parity T to the left, y to the right */
                err = set(label, i, code(0));
                if (!err && right)
                    err = push(stack, room, top++, (Py_ssize_t)k + 1, y);
                else if (!err)
                    err = set(label, k + 1, code(y));
                y = 2;
            }
            else { /* unequal pair: hold bit 1 for HT, 0 for TH; parity H to the left */
                err = set(label, i, code(5 - held));
                y = 1;
            }
            Py_XDECREF(node);
            node = left;
            i = (Py_ssize_t)k;
            if (err)
                goto fail;
            continue;
        }
        if (!top)
            break;
        Py_CLEAR(node);
        top--;
        i = (*stack)[top].node;
        y = (*stack)[top].symbol;
    }
    Py_XDECREF(node);
    return 0;
fail:
    Py_XDECREF(node);
    return -1;
}

static PyObject *
feed(PyObject *module, PyObject *args)
{
    PyObject *deliveries, *label, *kids, *src, *pairs, *out, *item;
    if (!PyArg_ParseTuple(args, "OO!O!O!O!O!:feed", &deliveries, &PyList_Type, &label,
                          &PyList_Type, &kids, &PyList_Type, &src, &PyDict_Type, &pairs,
                          &PyList_Type, &out))
        return NULL;
    PyObject *it = PyObject_GetIter(deliveries);
    if (it == NULL)
        return NULL;
    Waiting *stack = NULL;
    size_t room = 0, count = 0;
    while ((item = PyIter_Next(it)) != NULL) {
        if (!PyTuple_Check(item) || PyTuple_GET_SIZE(item) != 2) {
            PyErr_Format(PyExc_TypeError, "a delivery is a (root, symbol code) tuple, got %R", item);
            Py_DECREF(item);
            break;
        }
        PyObject *node = PyTuple_GET_ITEM(item, 0), *symbol = PyTuple_GET_ITEM(item, 1);
        Py_ssize_t i = PyLong_AsSsize_t(node);
        long y = symbol == CODE[1] ? 1 : symbol == CODE[2] ? 2 : 0;
        if (!y && !(i == -1 && PyErr_Occurred()))
            y = PyLong_AsLong(symbol);
        Py_INCREF(node);
        Py_DECREF(item);
        if (i < 0 || i >= PyList_GET_SIZE(label) || (y != 1 && y != 2)) {
            Py_DECREF(node);
            if (!PyErr_Occurred())
                PyErr_Format(PyExc_ValueError, "no delivery of symbol code %ld to node %zd", y, i);
            break;
        }
        if (deliver(i, y, node, label, kids, src, pairs, out, &stack, &room) < 0)
            break;
        if ((++count & SIGNAL_CHECK_MASK) == 0 && PyErr_CheckSignals() < 0)
            break;
    }
    PyMem_Free(stack);
    Py_DECREF(it);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"feed", feed, METH_VARARGS,
     "feed(deliveries, label, kids, src, pairs, out): the loop of Arena.feed."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "debias._arena", "The compiled delivery loop of debias.coin.Arena.feed.",
    -1, methods,
};

PyMODINIT_FUNC
PyInit__arena(void)
{
    for (long c = 0; c < 5; c++)
        if ((CODE[c] = PyLong_FromLong(c)) == NULL)
            return NULL;
    return PyModule_Create(&module);
}
