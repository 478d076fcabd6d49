/* Compiled subset-DP kernels; _pure.py states the recurrences: the
ordering recurrence t[S] = min over v in S of max(t[S-v], c(S, v)) with each
kernel's cost, and the split recurrence of tree congestion.  Vertex
separation and cutwidth fill their bound on S and run the min loop of settle().
The ordering fills and the N(T) and cut(S) tables run in blocks, one per
vertex h from the lowest up, over S = top + below for top = 2^h and below
< top, and each min loop tries t[S - top] before the bits of below.
Treewidth reads comp[S], the component of S's lowest vertex in G[S], from a
table it fills in the same pass from comp[S-h], h the highest vertex of S,
and the components of G[S-h] that h joins.  Unlike _pure.py it keeps no
N(S) table: where comp[S] = S it ORs the masks of S's vertices, so comp is
its one 2^n buffer of uint32, as nbrs is for vertex separation.  Two more
differences change only how _pure.py reaches the same entries.  It builds
N(T) for vertex separation by doubling an array, one extend per vertex,
and lists the bounds by T before it reverses them; this file writes
nbrs[T] and table[full - T] one by one in the same (top, below) loop.  And
_settle skips, by a filter, every S whose t[S - top] meets bound(S), where
settle() tests that at the head of its while loop.
Tree congestion takes an optional cap, the path incumbent in
min_tree_congestion, and fills min(t[S], cap), exact below the cap: a subset
with cut(S) >= cap gets cap with no split loop, as every split costs at least
cut(S), and any other starts its loop at cap.  A negative cap raises
ValueError, and a cap above BIG is no bound.

Each kernel takes the neighbour masks of n <= MAX_KERNEL_VERTICES vertices
and returns an array('H') of 2^n entries, indexed by vertex subset.  The
loops follow _pure.py line for line, but for those three differences, and
the tables must agree with it exactly; the test suite cross-checks the two
backends.
Every width, congestion and cut size of a 25-vertex graph is at most its
300 edges, so a 16-bit cell holds every entry.
*/

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>

#define MAX_KERNEL_VERTICES 25
#define BIG 0xFFFF

typedef uint64_t u64;
typedef unsigned short cell; /* the item type of array('H') */

/* returns 0, or -1 with an exception set; cap bounds the entries of the
   tree-congestion fill, and the ordering fills take no bound and ignore it */
typedef int (*fill_fn)(const u64 *adj, int n, int cap, cell *table);

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

/* _settle in _pure.py: table[S] holds bound(S) on entry and
   t[S] = max(bound(S), min over v in S of t[S-v]) on return */
static void
settle(cell *table, int n)
{
    for (int h = 0; h < n; h++) {
        u64 top = (u64)1 << h;
        for (u64 below = 0; below < top; below++) {
            u64 s = top | below;
            int bound = table[s];
            int best = table[below]; /* t[S - top] first */
            u64 rest = below;
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
}

/* treewidth_table in _pure.py, with N(S) ORed where comp[S] = S */
static int
fill_treewidth(const u64 *adj, int n, int cap, cell *table)
{
    uint32_t *comp = PyMem_Malloc(sizeof(uint32_t) << n);
    if (comp == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    comp[0] = 0;
    for (int h = 0; h < n; h++) {
        u64 top = (u64)1 << h;
        u64 nb = adj[h];
        comp[top] = (uint32_t)top; /* S = {top} is connected and costs |N(top)| = deg h */
        table[top] = (cell)bit_count(nb);
        for (u64 below = 1; below < top; below++) {
            u64 s = top | below;
            u64 c = comp[below];
            u64 touch = nb & below;
            if (touch & c) { /* top joins the lowest vertex's component */
                u64 rest = below ^ c;
                touch &= rest;
                c |= top;
                /* and every other component of G[below] it touches */
                while (touch) {
                    u64 d = comp[rest];
                    rest ^= d;
                    if (d & touch) {
                        c |= d;
                        touch &= rest;
                    }
                }
                if (c == s) { /* every vertex of a connected S costs reach */
                    comp[s] = (uint32_t)s;
                    u64 ns = 0;
                    for (u64 left = s; left; left &= left - 1)
                        ns |= adj[bit_index(left)];
                    int reach = bit_count(ns & ~s);
                    int best = table[below]; /* t[S - top] first */
                    rest = below;
                    while (rest && best > reach) {
                        u64 low = rest & -rest;
                        rest ^= low;
                        int prev = table[s ^ low];
                        if (prev < best)
                            best = prev;
                    }
                    table[s] = (cell)(best > reach ? best : reach);
                    continue;
                }
            }
            /* t[S] is the larger of t over the lowest component and the rest */
            comp[s] = (uint32_t)c;
            int a = table[c], b = table[s ^ c];
            table[s] = (cell)(a > b ? a : b);
        }
    }
    PyMem_Free(comp);
    return 0;
}

static int
fill_vertex_separation(const u64 *adj, int n, int cap, cell *table)
{
    u64 full = ((u64)1 << n) - 1;
    /* nbrs[T] = N(T), the union of T's masks */
    uint32_t *nbrs = PyMem_Malloc(sizeof(uint32_t) << n);
    if (nbrs == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    nbrs[0] = 0;
    for (int h = 0; h < n; h++) {
        u64 top = (u64)1 << h;
        for (u64 below = 0; below < top; below++) {
            u64 t = top | below;
            u64 nb = nbrs[below] | adj[h];
            nbrs[t] = (uint32_t)nb;
            /* border(S) = |N(T) - T| for S = full - T */
            table[full ^ t] = (cell)bit_count(nb & ~t);
        }
    }
    PyMem_Free(nbrs);
    settle(table, n);
    return 0;
}

/* _cut_size_table in _pure.py */
static void
fill_cut_sizes(const u64 *adj, int n, cell *table)
{
    for (int h = 0; h < n; h++) {
        u64 top = (u64)1 << h;
        int d = bit_count(adj[h]);
        for (u64 below = 0; below < top; below++)
            table[top | below] = (cell)(table[below] + d - 2 * bit_count(adj[h] & below));
    }
}

static int
fill_cutwidth(const u64 *adj, int n, int cap, cell *table)
{
    fill_cut_sizes(adj, n, table);
    settle(table, n);
    return 0;
}

static int
fill_path_congestion(const u64 *adj, int n, int cap, cell *table)
{
    fill_cut_sizes(adj, n, table);
    for (int h = 0; h < n; h++) {
        u64 top = (u64)1 << h;
        for (u64 below = 0; below < top; below++) {
            u64 s = top | below;
            int cut = table[s];
            /* v = top first: max(t[S - top], cut(S) + |N(top) & S|) */
            int best = table[below];
            int at_v = cut + bit_count(adj[h] & below);
            if (at_v > best)
                best = at_v;
            u64 rest = below;
            /* every candidate is at least cut(S) */
            while (rest && best > cut) {
                u64 low = rest & -rest;
                rest ^= low;
                int prev = table[s ^ low];
                if (prev >= best)
                    continue;
                at_v = cut + bit_count(adj[bit_index(low)] & s);
                int cand = prev > at_v ? prev : at_v;
                if (cand < best)
                    best = cand;
            }
            table[s] = (cell)best;
        }
    }
    return 0;
}

/* fills min(t[S], cap); cap = BIG is no bound, as no entry reaches it */
static int
fill_tree_congestion(const u64 *adj, int n, int cap, cell *table)
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
        int cut_s = cut[s];
        /* a singleton's deg v is cut(S); every split costs at least cut(S) */
        if (!rest || cut_s >= cap) {
            table[s] = (cell)(cut_s < cap ? cut_s : cap);
            continue;
        }
        int best = cap;
        /* B = part, A = s - part holds the lowest vertex */
        for (u64 part = rest; part && best > cut_s; part = (part - 1) & rest) {
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
run_kernel(PyObject *masks, fill_fn fill, int cap)
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
    int failed = fill(adj, n, cap, (cell *)view.buf);
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
    return run_kernel(masks, fill_treewidth, BIG);
}

static PyObject *
vertex_separation_table(PyObject *self, PyObject *masks)
{
    return run_kernel(masks, fill_vertex_separation, BIG);
}

static PyObject *
cutwidth_table(PyObject *self, PyObject *masks)
{
    return run_kernel(masks, fill_cutwidth, BIG);
}

static PyObject *
path_congestion_table(PyObject *self, PyObject *masks)
{
    return run_kernel(masks, fill_path_congestion, BIG);
}

static PyObject *
tree_congestion_table(PyObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"masks", "cap", NULL};
    PyObject *masks, *cap_arg = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|O:tree_congestion_table", kwlist,
                                     &masks, &cap_arg))
        return NULL;
    int cap = BIG;
    if (cap_arg != NULL) {
        int overflow;
        long long value = PyLong_AsLongLongAndOverflow(cap_arg, &overflow);
        if (value == -1 && PyErr_Occurred())
            return NULL;
        if (overflow < 0 || (overflow == 0 && value < 0)) {
            PyErr_SetString(PyExc_ValueError, "cap must be at least 0");
            return NULL;
        }
        /* no entry exceeds the 300 edges of 25 vertices: above BIG is no bound */
        if (overflow == 0 && value < BIG)
            cap = (int)value;
    }
    return run_kernel(masks, fill_tree_congestion, cap);
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
    {"tree_congestion_table", (PyCFunction)(void (*)(void))tree_congestion_table,
     METH_VARARGS | METH_KEYWORDS,
     "tree_congestion_table(masks, cap=no bound) -> array('H'): tree congestion,\n"
     "tw(L(G)) + 1, as min(t[S], cap), exact below the cap: every split costs at\n"
     "least cut(S), and min commutes with the cap.  min_tree_congestion passes the\n"
     "path incumbent pcon >= con.  A negative cap raises ValueError."},
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
