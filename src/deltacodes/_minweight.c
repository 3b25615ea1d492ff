/* Compiled search for the smallest number of linearly dependent columns.

   Works over any finite field given as flat arithmetic tables: an
   iterative-deepening DFS over column subsets in increasing index order, with
   the chosen columns kept as a normalized echelon basis so each candidate is
   reduced incrementally.  The deepening starts at a floor wmin, and the last
   two columns of a subset are closed by hashing (see pairs).
   _minweight_py.py is the same algorithm in Python. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Largest q whose flat q*q table indices fit in an int. */
#define MAX_Q 46340

typedef struct {
    const int *cols, *mul, *sub, *inv;
    int r, n, q;
    int *basis;  /* one normalized row of length r per chosen column */
    int *pivots; /* the first nonzero index of each basis row */
    int *seen;   /* the pair level's image of column j at seen + j * r */
    int *slots;  /* open-addressing table of column indices, -1 when free */
    size_t mask; /* slots has mask + 1 entries, a power of two >= 2n */
} Search;

/* Reduce v against the first nbasis basis rows in place; 1 if v became zero. */
static int reduce(const Search *s, int *v, int nbasis)
{
    int r = s->r, q = s->q;
    for (int b = 0; b < nbasis; b++) {
        const int *row = s->basis + (size_t)b * r;
        int p = s->pivots[b], f = v[p];
        if (f != 0)
            for (int k = p; k < r; k++)
                v[k] = s->sub[v[k] * q + s->mul[f * q + row[k]]];
    }
    for (int k = 0; k < r; k++)
        if (v[k] != 0)
            return 0;
    return 1;
}

/* Scale the nonzero v in place so its first nonzero entry is 1; its index. */
static int lead_one(const Search *s, int *v)
{
    int p = 0;
    while (v[p] == 0)
        p++;
    const int *f = s->mul + s->inv[v[p]] * s->q;
    for (int k = p; k < s->r; k++)
        v[k] = f[v[k]];
    return p;
}

/* 1 if two columns, taken from index start on, complete a dependent set with
   the nbasis columns already chosen.  Each column is reduced once and scaled
   to a leading 1: the reduction is linear and its result is the unique
   representative of the column modulo the basis that is zero at the pivots,
   so a zero image, or an image seen before, closes a dependent set. */
static int pairs(const Search *s, int nbasis, int start)
{
    int r = s->r;
    for (size_t i = 0; i <= s->mask; i++)
        s->slots[i] = -1;
    for (int j = start; j < s->n; j++) {
        int *v = s->seen + (size_t)j * r;
        memcpy(v, s->cols + (size_t)j * r, sizeof(int) * r);
        if (reduce(s, v, nbasis))
            return 1;
        lead_one(s, v);
        unsigned h = 2166136261u; /* FNV-1a over the entries */
        for (int k = 0; k < r; k++)
            h = (h ^ (unsigned)v[k]) * 16777619u;
        size_t i = h & s->mask;
        for (; s->slots[i] >= 0; i = (i + 1) & s->mask)
            if (memcmp(s->seen + (size_t)s->slots[i] * r, v, sizeof(int) * r) == 0)
                return 1;
        s->slots[i] = j;
    }
    return 0;
}

/* 1 if depth_left more columns, taken from index start on, complete a
   dependent set with the nbasis columns already chosen. */
static int dfs(const Search *s, int nbasis, int start, int depth_left)
{
    if (depth_left == 2)
        return pairs(s, nbasis, start);
    int r = s->r, *row = s->basis + (size_t)nbasis * r;
    for (int j = start; j <= s->n - depth_left; j++) {
        memcpy(row, s->cols + (size_t)j * r, sizeof(int) * r);
        if (reduce(s, row, nbasis))
            return 1;
        if (depth_left == 1)
            continue;
        s->pivots[nbasis] = lead_one(s, row);
        if (dfs(s, nbasis + 1, j + 1, depth_left - 1))
            return 1;
    }
    return 0;
}

/* The ints of buf if it holds at least `need` aligned ints, each in [0, q);
   else NULL with ValueError set.  An empty array's buffer may be unaligned. */
static const int *check(const Py_buffer *buf, Py_ssize_t need, int q, const char *name)
{
    const int *x = buf->buf;
    Py_ssize_t len = buf->len / (Py_ssize_t)sizeof(int), i = 0;
    if (buf->itemsize != sizeof(int) || (need > 0 && (uintptr_t)x % sizeof(int)))
        PyErr_Format(PyExc_ValueError, "%s must be an array('i')", name);
    else if (len < need)
        PyErr_Format(PyExc_ValueError, "%s holds %zd entries, needs %zd", name, len, need);
    else {
        while (i < need && x[i] >= 0 && x[i] < q)
            i++;
        if (i == need)
            return x;
        PyErr_Format(PyExc_ValueError, "%s[%zd] = %d is not in [0, %d)", name, i, x[i], q);
    }
    return NULL;
}

static PyObject *search(Search *s, int wmin, int wmax)
{
    int found = 0;
    size_t slots = 2;
    wmax = wmax < s->n ? wmax : s->n;
    if (wmin > wmax)
        return PyLong_FromLong(0);
    while (slots < 2 * (size_t)s->n)
        slots *= 2;
    /* basis rows, pivots, pair-level images, then the slots */
    s->basis = PyMem_Malloc(sizeof(int) * ((size_t)wmax * (s->r + 1)
                                           + (size_t)s->n * s->r + slots));
    if (s->basis == NULL)
        return PyErr_NoMemory();
    s->pivots = s->basis + (size_t)wmax * s->r;
    s->seen = s->pivots + wmax;
    s->slots = s->seen + (size_t)s->n * s->r;
    s->mask = slots - 1;
    for (int w = wmin; w <= wmax && !found; w++)
        if (dfs(s, 0, 0, w))
            found = w;
    PyMem_Free(s->basis);
    return PyLong_FromLong(found);
}

PyDoc_STRVAR(min_dependent_columns_doc,
"min_dependent_columns(cols, r, n, q, mul, sub, inv, wmax, wmin=1)\n--\n\n"
"Smallest w with wmin <= w <= wmax such that some w columns are linearly\n"
"dependent, or 0 when there is none.\n\n"
"That is max(d, wmin) for the least dependent size d, because a superset of\n"
"a dependent set is dependent; so a known lower bound on d as ``wmin``\n"
"skips the depths below it.  ``cols`` is column-major (entry (i, j) at\n"
"``cols[j * r + i]``); ``mul`` and ``sub`` are flat q*q tables, ``inv`` a\n"
"length-q table, all array('i').  The last two columns of a subset are found\n"
"by hashing the reduced, normalized columns instead of trying every pair.");

static PyObject *min_dependent_columns(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer cols, mul, sub, inv;
    Search s = {0};
    int wmax, wmin = 1;
    PyObject *result = NULL;
    if (!PyArg_ParseTuple(args, "y*iiiy*y*y*i|i", &cols, &s.r, &s.n, &s.q, &mul,
                          &sub, &inv, &wmax, &wmin))
        return NULL;
    if (s.r < 0 || s.n < 0 || s.q < 0 || wmax < 0 || wmin < 1 || s.q > MAX_Q)
        PyErr_Format(PyExc_ValueError,
                     "r, n, q and wmax must be non-negative, wmin positive "
                     "and q at most %d", MAX_Q);
    else if (s.r == 0) /* every column is zero */
        result = PyLong_FromLong(wmin <= wmax && wmin <= s.n ? wmin : 0);
    else if ((s.cols = check(&cols, (Py_ssize_t)s.r * s.n, s.q, "cols"))
             && (s.mul = check(&mul, (Py_ssize_t)s.q * s.q, s.q, "mul"))
             && (s.sub = check(&sub, (Py_ssize_t)s.q * s.q, s.q, "sub"))
             && (s.inv = check(&inv, s.q, s.q, "inv")))
        result = search(&s, wmin, wmax);
    PyBuffer_Release(&cols);
    PyBuffer_Release(&mul);
    PyBuffer_Release(&sub);
    PyBuffer_Release(&inv);
    return result;
}

static PyMethodDef methods[] = {
    {"min_dependent_columns", min_dependent_columns, METH_VARARGS, min_dependent_columns_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_minweight", .m_size = -1, .m_methods = methods,
    .m_doc = "Compiled search for the smallest number of linearly dependent columns.",
};

PyMODINIT_FUNC PyInit__minweight(void)
{
    return PyModule_Create(&module);
}
