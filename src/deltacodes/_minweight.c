/* Compiled search for the smallest number of linearly dependent columns.

   Works over any finite field given as flat arithmetic tables: an
   iterative-deepening DFS over column subsets in increasing index order, with
   the chosen columns kept as a normalized echelon basis so each candidate is
   reduced incrementally.  _minweight_py.py is the same algorithm in Python. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Largest q whose flat q*q table indices fit in an int. */
#define MAX_Q 46340

typedef struct {
    const int *cols, *mul, *sub, *inv;
    int r, n, q;
    int *basis;  /* one normalized row of length r per chosen column */
    int *pivots; /* the first nonzero index of each basis row */
    int *v;      /* the candidate column being reduced */
} Search;

/* Reduce v against the first nbasis basis rows in place; 1 if v became zero. */
static int reduce(const Search *s, int nbasis)
{
    int r = s->r, q = s->q, *v = s->v;
    for (int b = 0; b < nbasis; b++) {
        const int *row = s->basis + b * r;
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

/* 1 if depth_left more columns, taken from index start on, complete a
   dependent set with the nbasis columns already chosen. */
static int dfs(const Search *s, int nbasis, int start, int depth_left)
{
    int r = s->r, q = s->q, *v = s->v, *row = s->basis + nbasis * r;
    for (int j = start; j <= s->n - depth_left; j++) {
        memcpy(v, s->cols + (Py_ssize_t)j * r, sizeof(int) * r);
        if (reduce(s, nbasis))
            return 1;
        if (depth_left == 1)
            continue;
        int p = 0;
        while (v[p] == 0)
            p++;
        int f = s->inv[v[p]];
        memset(row, 0, sizeof(int) * p);
        for (int k = p; k < r; k++)
            row[k] = s->mul[f * q + v[k]];
        s->pivots[nbasis] = p;
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

static PyObject *search(Search *s, int wmax)
{
    int found = 0;
    wmax = wmax < s->n ? wmax : s->n;
    /* basis rows, then pivots, then v: wmax * r + wmax + r ints */
    s->basis = PyMem_Malloc(sizeof(int) * ((size_t)wmax * (s->r + 1) + s->r));
    if (s->basis == NULL)
        return PyErr_NoMemory();
    s->pivots = s->basis + (size_t)wmax * s->r;
    s->v = s->pivots + wmax;
    for (int w = 1; w <= wmax && !found; w++)
        if (dfs(s, 0, 0, w))
            found = w;
    PyMem_Free(s->basis);
    return PyLong_FromLong(found);
}

PyDoc_STRVAR(min_dependent_columns_doc,
"min_dependent_columns(cols, r, n, q, mul, sub, inv, wmax)\n--\n\n"
"Smallest w such that some w columns are linearly dependent, or 0.\n\n"
"``cols`` is column-major (entry (i, j) at ``cols[j * r + i]``); ``mul`` and\n"
"``sub`` are flat q*q tables, ``inv`` a length-q table, all array('i').\n"
"Returns 0 when no dependency of size <= wmax exists.");

static PyObject *min_dependent_columns(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer cols, mul, sub, inv;
    Search s = {0};
    int wmax;
    PyObject *result = NULL;
    if (!PyArg_ParseTuple(args, "y*iiiy*y*y*i", &cols, &s.r, &s.n, &s.q, &mul,
                          &sub, &inv, &wmax))
        return NULL;
    if (s.r < 0 || s.n < 0 || s.q < 0 || wmax < 0 || s.q > MAX_Q)
        PyErr_Format(PyExc_ValueError,
                     "r, n, q and wmax must be non-negative and q at most %d", MAX_Q);
    else if (s.r == 0)
        result = PyLong_FromLong(s.n >= 1);
    else if ((s.cols = check(&cols, (Py_ssize_t)s.r * s.n, s.q, "cols"))
             && (s.mul = check(&mul, (Py_ssize_t)s.q * s.q, s.q, "mul"))
             && (s.sub = check(&sub, (Py_ssize_t)s.q * s.q, s.q, "sub"))
             && (s.inv = check(&inv, s.q, s.q, "inv")))
        result = search(&s, wmax);
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
