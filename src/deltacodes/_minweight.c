/* Compiled linear algebra over a finite field given as flat arithmetic tables.

   min_dependent_columns searches for the smallest number of linearly
   dependent columns: an iterative-deepening DFS over column subsets in
   increasing index order, with the chosen columns kept as a normalized
   echelon basis so each candidate is reduced incrementally.  The deepening
   starts at a floor wmin, and the last two columns of a subset are closed by
   hashing (see pairs).  extend_echelon is the rank step of a scan: it reduces
   a block of rows against a normalized echelon basis the caller keeps, with
   the same reduce and lead_one.  _minweight_py.py is the same in Python. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Largest q whose flat q*q table indices fit in an int. */
#define MAX_Q 46340

typedef struct {
    const int *cols, *mul, *sub, *inv;
    int r, n, q; /* r is the length of a basis row */
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

/* The ints of buf if it holds at least `room` aligned ints, the first `need`
   of them each in [0, q); else NULL with ValueError set.  An empty array's
   buffer may be unaligned. */
static int *check_room(const Py_buffer *buf, Py_ssize_t room, Py_ssize_t need, int q,
                       const char *name)
{
    int *x = buf->buf;
    Py_ssize_t len = buf->len / (Py_ssize_t)sizeof(int), i = 0;
    if (buf->itemsize != sizeof(int) || (room > 0 && (uintptr_t)x % sizeof(int)))
        PyErr_Format(PyExc_ValueError, "%s must be an array('i')", name);
    else if (len < room)
        PyErr_Format(PyExc_ValueError, "%s holds %zd entries, needs %zd", name, len, room);
    else {
        while (i < need && x[i] >= 0 && x[i] < q)
            i++;
        if (i == need)
            return x;
        PyErr_Format(PyExc_ValueError, "%s[%zd] = %d is not in [0, %d)", name, i, x[i], q);
    }
    return NULL;
}

static const int *check(const Py_buffer *buf, Py_ssize_t need, int q, const char *name)
{
    return check_room(buf, need, need, q, name);
}

/* check_room for a buffer the kernel writes to. */
static int *check_out(const Py_buffer *buf, Py_ssize_t room, Py_ssize_t need, int q,
                      const char *name)
{
    if (buf->readonly) {
        PyErr_Format(PyExc_ValueError, "%s must be writable", name);
        return NULL;
    }
    return check_room(buf, room, need, q, name);
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

/* Reduce each of the m rows of length s->r against the basis, appending the
   independent ones normalized; the flags as bytes.  A full basis spans every
   row, so nothing is written past row r. */
static PyObject *extend(Search *s, const int *rows, int m, int rank)
{
    int n = s->r;
    PyObject *flags = PyBytes_FromStringAndSize(NULL, m);
    if (flags == NULL)
        return NULL;
    char *flag = PyBytes_AS_STRING(flags);
    for (int i = 0; i < m; i++) {
        int *row = s->basis + (size_t)rank * n;
        flag[i] = 0;
        if (rank == n)
            continue;
        memcpy(row, rows + (size_t)i * n, sizeof(int) * n);
        if (!reduce(s, row, rank)) {
            s->pivots[rank++] = lead_one(s, row);
            flag[i] = 1;
        }
    }
    return flags;
}

PyDoc_STRVAR(extend_echelon_doc,
"extend_echelon(rows, m, n, q, mul, sub, inv, basis, pivots, rank)\n--\n\n"
"Reduce each of the m rows of length n in turn against a normalized echelon\n"
"basis, and append each independent one, scaled to a leading 1; one flag\n"
"per row as bytes, 1 when the row was independent of the rows before it.\n\n"
"``rows`` is row-major; ``mul`` and ``sub`` are flat q*q tables, ``inv`` a\n"
"length-q table.  The caller keeps the basis across calls: its first\n"
"``rank`` rows in ``basis`` (room for n*n ints) and their pivot columns in\n"
"``pivots`` (room for n ints), both writable, all array('i').  The new rank\n"
"is ``rank`` plus the number of flags set.");

static PyObject *extend_echelon(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer rows, mul, sub, inv, basis, pivots;
    Search s = {0};
    int m, rank;
    const int *in;
    PyObject *result = NULL;
    if (!PyArg_ParseTuple(args, "y*iiiy*y*y*y*y*i", &rows, &m, &s.r, &s.q, &mul, &sub,
                          &inv, &basis, &pivots, &rank))
        return NULL;
    if (m < 0 || s.r < 0 || s.q < 0 || rank < 0 || rank > s.r || s.q > MAX_Q)
        PyErr_Format(PyExc_ValueError,
                     "m, n and q must be non-negative, rank in [0, n] "
                     "and q at most %d", MAX_Q);
    else if ((in = check(&rows, (Py_ssize_t)m * s.r, s.q, "rows"))
             && (s.mul = check(&mul, (Py_ssize_t)s.q * s.q, s.q, "mul"))
             && (s.sub = check(&sub, (Py_ssize_t)s.q * s.q, s.q, "sub"))
             && (s.inv = check(&inv, s.q, s.q, "inv"))
             && (s.basis = check_out(&basis, (Py_ssize_t)s.r * s.r,
                                     (Py_ssize_t)rank * s.r, s.q, "basis"))
             && (s.pivots = check_out(&pivots, s.r, rank, s.r, "pivots")))
        result = extend(&s, in, m, rank);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&mul);
    PyBuffer_Release(&sub);
    PyBuffer_Release(&inv);
    PyBuffer_Release(&basis);
    PyBuffer_Release(&pivots);
    return result;
}

static PyMethodDef methods[] = {
    {"min_dependent_columns", min_dependent_columns, METH_VARARGS, min_dependent_columns_doc},
    {"extend_echelon", extend_echelon, METH_VARARGS, extend_echelon_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_minweight", .m_size = -1, .m_methods = methods,
    .m_doc = "Compiled column search and echelon extension over a finite field.",
};

PyMODINIT_FUNC PyInit__minweight(void)
{
    return PyModule_Create(&module);
}
