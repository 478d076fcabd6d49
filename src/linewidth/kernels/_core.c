/* Compiled subset-DP kernels; _pure.py states the recurrences: the
ordering recurrence t[S] = min over v in S of max(t[S-v], c(S, v)) with each
kernel's cost, and the split recurrence of tree congestion.  Vertex
separation and cutwidth fill their bound on S and run the min loop of settle().

Each kernel takes the neighbour masks of n <= MAX_KERNEL_VERTICES vertices
and returns an array('H') of 2^n entries, indexed by vertex subset.  The
loops follow _pure.py line for line and the tables must agree with it
exactly; the test suite cross-checks the two backends.  Every width,
congestion and cut size of a 25-vertex graph is at most its 300 edges, so
a 16-bit cell holds every entry.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MAX_KERNEL_VERTICES 25
#define BIG 0xFFFF

typedef uint64_t u64;
typedef unsigned short cell; /* the item type of array('H') */

/* returns 0, or -1 with an exception set */
typedef int (*fill_fn)(const u64 *adj, int n, cell *table);

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

/* component_reach in _pure.py: the component of v in G[s] goes to *comp,
   and the number of vertices outside s adjacent to it is returned. */
static inline int
component_reach(const u64 *adj, u64 s, int v, u64 *comp)
{
    u64 found = 0, seen = 0, frontier = (u64)1 << v;
    while (frontier) {
        found |= frontier;
        u64 grown = 0;
        while (frontier) {
            u64 low = frontier & -frontier;
            frontier ^= low;
            grown |= adj[bit_index(low)];
        }
        seen |= grown;
        frontier = grown & s & ~found;
    }
    *comp = found;
    return bit_count(seen & ~s);
}

/* _settle in _pure.py: table[S] holds bound(S) on entry and
   t[S] = max(bound(S), min over v in S of t[S-v]) on return */
static void
settle(cell *table, int n)
{
    for (u64 s = 1; s < (u64)1 << n; s++) {
        int bound = table[s];
        int best = BIG;
        u64 rest = s;
        /* once some t[S-v] <= bound(S), t[S] is bound(S) */
        while (rest && best > bound) {
            u64 low = rest & -rest;
            rest ^= low;
            int prev = table[s ^ low];
            if (prev < best)
                best = prev;
        }
        if (best > bound)
            table[s] = (cell)best;
    }
}

static int
fill_treewidth(const u64 *adj, int n, cell *table)
{
    for (u64 s = 1; s < (u64)1 << n; s++) {
        u64 comp;
        int reach = component_reach(adj, s, bit_index(s & -s), &comp);
        if (comp != s) { /* t[S] is the larger of t over the lowest component and the rest */
            int a = table[comp], b = table[s ^ comp];
            table[s] = (cell)(a > b ? a : b);
            continue;
        }
        int best = BIG;
        u64 rest = s;
        /* every vertex of a connected S costs reach */
        while (rest && best > reach) {
            u64 low = rest & -rest;
            rest ^= low;
            int prev = table[s ^ low];
            if (prev < best)
                best = prev;
        }
        table[s] = (cell)(best > reach ? best : reach);
    }
    return 0;
}

static int
fill_vertex_separation(const u64 *adj, int n, cell *table)
{
    u64 full = ((u64)1 << n) - 1;
    /* nbrs[T] = N(T), the union of T's masks */
    uint32_t *nbrs = PyMem_Malloc(sizeof(uint32_t) << n);
    if (nbrs == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    nbrs[0] = 0;
    for (u64 t = 1; t < (u64)1 << n; t++) {
        u64 low = t & -t;
        u64 nb = nbrs[t ^ low] | adj[bit_index(low)];
        nbrs[t] = (uint32_t)nb;
        /* border(S) = |N(T) - T| for S = full - T */
        table[full ^ t] = (cell)bit_count(nb & ~t);
    }
    PyMem_Free(nbrs);
    settle(table, n);
    return 0;
}

/* _cut_size_table in _pure.py */
static void
fill_cut_sizes(const u64 *adj, int n, cell *table)
{
    for (u64 s = 1; s < (u64)1 << n; s++) {
        u64 low = s & -s;
        u64 nb = adj[bit_index(low)];
        table[s] = (cell)(table[s ^ low] + bit_count(nb) - 2 * bit_count(nb & s));
    }
}

static int
fill_cutwidth(const u64 *adj, int n, cell *table)
{
    fill_cut_sizes(adj, n, table);
    settle(table, n);
    return 0;
}

static int
fill_path_congestion(const u64 *adj, int n, cell *table)
{
    fill_cut_sizes(adj, n, table);
    for (u64 s = 1; s < (u64)1 << n; s++) {
        int cut = table[s];
        int best = BIG;
        u64 rest = s;
        /* every candidate is at least cut(S) */
        while (rest && best > cut) {
            u64 low = rest & -rest;
            rest ^= low;
            int prev = table[s ^ low];
            if (prev >= best)
                continue;
            int at_v = cut + bit_count(adj[bit_index(low)] & s);
            int cand = prev > at_v ? prev : at_v;
            if (cand < best)
                best = cand;
        }
        table[s] = (cell)best;
    }
    return 0;
}

static int
fill_tree_congestion(const u64 *adj, int n, cell *table)
{
    cell *cut = PyMem_Malloc(sizeof(cell) << n);
    if (cut == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    cut[0] = 0;
    fill_cut_sizes(adj, n, cut);
    for (u64 s = 1; s < (u64)1 << n; s++) {
        u64 rest = s ^ (s & -s);
        if (!rest) {
            table[s] = cut[s]; /* deg v */
            continue;
        }
        int cut_s = cut[s];
        int best = BIG;
        /* B = part, A = s - part holds the lowest vertex */
        for (u64 part = rest; part; part = (part - 1) & rest) {
            u64 other = s ^ part;
            int a = table[other], b = table[part];
            if (a < best && b < best) {
                int node = (cut[other] + cut[part] + cut_s) >> 1;
                int cand = a > b ? a : b;
                if (node > cand)
                    cand = node;
                if (cand < best)
                    best = cand;
            }
        }
        table[s] = (cell)best;
    }
    PyMem_Free(cut);
    return 0;
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
    int failed = fill(adj, n, (cell *)view.buf);
    PyBuffer_Release(&view);
    if (failed) {
        Py_DECREF(table);
        return NULL;
    }
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

static PyObject *
tree_congestion_table(PyObject *self, PyObject *masks)
{
    return run_kernel(masks, fill_tree_congestion);
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
    {"tree_congestion_table", tree_congestion_table, METH_O,
     "tree_congestion_table(masks) -> array('H'): tree congestion, tw(L(G)) + 1."},
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
