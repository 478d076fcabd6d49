/* Compiled subset-DP kernels; see _pure.py for the recurrences.

Each kernel takes the neighbour masks of n <= MAX_KERNEL_VERTICES vertices
and returns an array('H') of 2^n entries, indexed by vertex subset.  The
loops follow _pure.py line for line and the tables must agree with it
exactly; the test suite cross-checks the two backends.  Every width and
congestion of a 25-vertex graph is at most its 300 edges, so a 16-bit cell
holds every entry.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MAX_KERNEL_VERTICES 25
#define BIG 0xFFFF

typedef uint64_t u64;
typedef unsigned short cell; /* the item type of array('H') */

typedef void (*fill_fn)(const u64 *adj, int n, cell *table);

static PyObject *zero_cell; /* array('H', [0]), repeated into each table */

static inline int
bit_index(u64 low)
{
    return __builtin_ctzll(low);
}

static inline int
bit_count(u64 x)
{
    return __builtin_popcountll(x);
}

/* elimination_reach_count in _pure.py */
static inline int
elimination_reach_count(const u64 *adj, u64 t, int v)
{
    u64 bit = (u64)1 << v;
    u64 comp = bit;
    u64 reach = adj[v];
    u64 frontier = adj[v] & t;
    while (frontier) {
        comp |= frontier;
        u64 grown = 0;
        while (frontier) {
            u64 low = frontier & -frontier;
            frontier ^= low;
            grown |= adj[bit_index(low)];
        }
        reach |= grown;
        frontier = grown & t & ~comp;
    }
    return bit_count(reach & ~t & ~bit);
}

/* cross_size in _pure.py */
static inline int
cross_size(const u64 *adj, u64 s)
{
    int count = 0;
    u64 rest = s;
    while (rest) {
        u64 low = rest & -rest;
        rest ^= low;
        count += bit_count(adj[bit_index(low)] & ~s);
    }
    return count;
}

static void
fill_treewidth(const u64 *adj, int n, cell *table)
{
    for (u64 s = 1; s < (u64)1 << n; s++) {
        int best = BIG;
        u64 rest = s;
        while (rest) {
            u64 low = rest & -rest;
            rest ^= low;
            int v = bit_index(low);
            u64 t = s ^ low;
            int q = elimination_reach_count(adj, t, v);
            int prev = table[t];
            int cand = prev > q ? prev : q;
            if (cand < best)
                best = cand;
        }
        table[s] = (cell)best;
    }
}

static void
fill_vertex_separation(const u64 *adj, int n, cell *table)
{
    for (u64 s = 1; s < (u64)1 << n; s++) {
        int best = BIG;
        int border = 0;
        u64 rest = s;
        while (rest) {
            u64 low = rest & -rest;
            rest ^= low;
            if (adj[bit_index(low)] & ~s)
                border += 1;
            int prev = table[s ^ low];
            if (prev < best)
                best = prev;
        }
        table[s] = (cell)(best > border ? best : border);
    }
}

static void
fill_cutwidth(const u64 *adj, int n, cell *table)
{
    for (u64 s = 1; s < (u64)1 << n; s++) {
        int best = BIG;
        int cross = 0;
        u64 rest = s;
        while (rest) {
            u64 low = rest & -rest;
            rest ^= low;
            cross += bit_count(adj[bit_index(low)] & ~s);
            int prev = table[s ^ low];
            if (prev < best)
                best = prev;
        }
        table[s] = (cell)(best > cross ? best : cross);
    }
}

static void
fill_path_congestion(const u64 *adj, int n, cell *table)
{
    for (u64 s = 1; s < (u64)1 << n; s++) {
        int cross = cross_size(adj, s);
        int best = BIG;
        u64 rest = s;
        while (rest) {
            u64 low = rest & -rest;
            rest ^= low;
            int u = bit_index(low);
            int at_u = cross + bit_count(adj[u] & s);
            int prev = table[s ^ low];
            int cand = prev > at_u ? prev : at_u;
            if (cand < best)
                best = cand;
        }
        table[s] = (cell)best;
    }
}

/* Read the masks sequence into adj; returns n, or -1 with an exception set. */
static int
read_masks(PyObject *masks, u64 *adj)
{
    PyObject *seq = PySequence_Fast(masks, "masks must be a sequence of ints");
    if (seq == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(seq);
    if (n > MAX_KERNEL_VERTICES) {
        PyErr_Format(PyExc_ValueError, "kernels support at most %d vertices",
                     MAX_KERNEL_VERTICES);
        Py_DECREF(seq);
        return -1;
    }
    for (Py_ssize_t i = 0; i < n; i++) {
        adj[i] = PyLong_AsUnsignedLongLong(PySequence_Fast_GET_ITEM(seq, i));
        if (adj[i] == (u64)-1 && PyErr_Occurred()) {
            Py_DECREF(seq);
            return -1;
        }
    }
    Py_DECREF(seq);
    return (int)n;
}

static PyObject *
run_kernel(PyObject *masks, fill_fn fill)
{
    u64 adj[MAX_KERNEL_VERTICES];
    int n = read_masks(masks, adj);
    if (n < 0)
        return NULL;
    PyObject *table = PySequence_Repeat(zero_cell, (Py_ssize_t)1 << n);
    if (table == NULL)
        return NULL;
    Py_buffer view;
    if (PyObject_GetBuffer(table, &view, PyBUF_WRITABLE) < 0) {
        Py_DECREF(table);
        return NULL;
    }
    fill(adj, n, (cell *)view.buf);
    PyBuffer_Release(&view);
    return table;
}

static PyObject *
treewidth_table(PyObject *self, PyObject *masks)
{
    return run_kernel(masks, fill_treewidth);
}

static PyObject *
vertex_separation_table(PyObject *self, PyObject *masks)
{
    return run_kernel(masks, fill_vertex_separation);
}

static PyObject *
cutwidth_table(PyObject *self, PyObject *masks)
{
    return run_kernel(masks, fill_cutwidth);
}

static PyObject *
path_congestion_table(PyObject *self, PyObject *masks)
{
    return run_kernel(masks, fill_path_congestion);
}

static PyMethodDef core_methods[] = {
    {"treewidth_table", treewidth_table, METH_O,
     "treewidth_table(masks) -> array('H'): tw over elimination orderings."},
    {"vertex_separation_table", vertex_separation_table, METH_O,
     "vertex_separation_table(masks) -> array('H'): pathwidth as vertex separation."},
    {"cutwidth_table", cutwidth_table, METH_O,
     "cutwidth_table(masks) -> array('H'): cutwidth over vertex orderings."},
    {"path_congestion_table", path_congestion_table, METH_O,
     "path_congestion_table(masks) -> array('H'): path congestion, pw(L(G)) + 1."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef core_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_core",
    .m_doc = "Compiled subset-DP kernels; see _pure.py for the recurrences.",
    .m_size = -1,
    .m_methods = core_methods,
};

PyMODINIT_FUNC
PyInit__core(void)
{
    if (zero_cell == NULL) {
        PyObject *array = PyImport_ImportModule("array");
        if (array == NULL)
            return NULL;
        zero_cell = PyObject_CallMethod(array, "array", "s[i]", "H", 0);
        Py_DECREF(array);
        if (zero_cell == NULL)
            return NULL;
    }
    PyObject *module = PyModule_Create(&core_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddIntConstant(module, "MAX_KERNEL_VERTICES", MAX_KERNEL_VERTICES) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
