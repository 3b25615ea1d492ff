/* Compiled linear algebra over a finite field given as flat arithmetic tables.

   min_dependent_columns searches for the smallest number of linearly
   dependent columns: an iterative-deepening DFS over column subsets in
   increasing index order, with the chosen columns kept as a normalized
   echelon basis.  Each depth keeps the images of the later columns modulo
   the basis so far, so going one depth down costs one row operation per
   column, not one per column and basis row (see step).  The deepening
   starts at a floor wmin, and the last two columns of a subset are closed by
   hashing (see pairs).  extend_echelon is the rank step of a scan: it
   reduces a block of rows against a normalized echelon basis the caller
   keeps, with reduce and the lead_one the search uses.  field_tables fills a
   field's q*q subtraction and multiplication tables.  multiply_rows forms a
   scan's evaluation rows: each new row is an earlier row times one row of
   approximant values, entry by entry.  _minweight_py.py is the same in
   Python, and its docstrings state each entry point's contract. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

/* Largest q whose flat q*q table indices fit in an int. */
#define MAX_Q 46340

typedef struct {
    const int *cols, *mul, *sub, *inv;
    int r, n, q; /* r is the length of a basis row */
    int *basis;  /* one normalized row of length r per chosen column */
    int *pivots; /* the first nonzero index of each basis row */
    int *images; /* level L >= 1 at images + (L - 1) * n * r (see image) */
    int *slots;  /* open-addressing table of column indices, -1 when free */
    size_t mask; /* slots has mask + 1 entries, a power of two >= 2n */
} Search;

/* Reduce v against the first nbasis basis rows in place. */
static void reduce(const Search *s, int *v, int nbasis)
{
    int r = s->r, q = s->q;
    for (int b = 0; b < nbasis; b++) {
        const int *row = s->basis + (size_t)b * r;
        int p = s->pivots[b], f = v[p];
        if (f != 0)
            for (int k = p; k < r; k++)
                v[k] = s->sub[v[k] * q + s->mul[f * q + row[k]]];
    }
}

/* Scale v in place so its first nonzero entry is 1; the index of that entry,
   r when v is zero. */
static int lead_one(const Search *s, int *v)
{
    int p = 0, r = s->r;
    while (p < r && v[p] == 0)
        p++;
    if (p == r)
        return r;
    const int *f = s->mul + s->inv[v[p]] * s->q;
    for (int k = p; k < r; k++)
        v[k] = f[v[k]];
    return p;
}

/* Where column j's image at level L >= 1 is kept. */
static int *level(const Search *s, int L, int j)
{
    return s->images + ((size_t)(L - 1) * s->n + j) * s->r;
}

/* Column j's image modulo the first L basis rows: the column itself at
   level 0. */
static const int *image(const Search *s, int L, int j)
{
    return L ? level(s, L, j) : s->cols + (size_t)j * s->r;
}

/* Make column j's image at level L >= 1: its image at level L - 1 minus its
   entry at the pivot p of basis row L - 1 times that row.  Each basis row is
   zero at the pivots before its own, so this is what reduce makes of the
   column against the first L rows, at one row operation instead of L. */
static int *step(const Search *s, int L, int j)
{
    int r = s->r, q = s->q, p = s->pivots[L - 1];
    const int *u = image(s, L - 1, j), *row = s->basis + (size_t)(L - 1) * r;
    int *v = level(s, L, j);
    if (u[p] == 0)
        return memcpy(v, u, sizeof(int) * r);
    memcpy(v, u, sizeof(int) * p);
    const int *f = s->mul + u[p] * q;
    for (int k = p; k < r; k++)
        v[k] = s->sub[u[k] * q + f[row[k]]];
    return v;
}

/* 1 if two columns, taken from index start on, complete a dependent set with
   the nbasis columns already chosen.  Each column's image at level nbasis is
   made and scaled to a leading 1 in place: the image is the unique
   representative of the column modulo the basis that is zero at the pivots,
   so a zero image, or an image seen before, closes a dependent set.  With no
   basis the columns are copied to level 1, as the input is read-only. */
static int pairs(const Search *s, int nbasis, int start)
{
    int r = s->r, at = nbasis ? nbasis : 1;
    for (size_t i = 0; i <= s->mask; i++)
        s->slots[i] = -1;
    for (int j = start; j < s->n; j++) {
        int *v = nbasis ? step(s, nbasis, j)
                        : memcpy(level(s, 1, j), image(s, 0, j), sizeof(int) * r);
        int p = 0; /* lead_one and an FNV-1a hash of p and v from p on, in one pass */
        while (p < r && v[p] == 0)
            p++;
        if (p == r)
            return 1;
        const int *f = s->mul + s->inv[v[p]] * s->q;
        unsigned h = 2166136261u ^ (unsigned)p;
        for (int k = p; k < r; k++) {
            v[k] = f[v[k]];
            h = (h ^ (unsigned)v[k]) * 16777619u;
        }
        size_t i = h & s->mask;
        for (; s->slots[i] >= 0; i = (i + 1) & s->mask)
            if (memcmp(level(s, at, s->slots[i]), v, sizeof(int) * r) == 0)
                return 1;
        s->slots[i] = j;
    }
    return 0;
}

/* 1 if depth_left more columns, taken from index start on, complete a
   dependent set with the nbasis columns already chosen.  The level-nbasis
   images of all the columns from start on are made first, as the next
   depth makes its own from them. */
static int dfs(const Search *s, int nbasis, int start, int depth_left)
{
    if (depth_left == 2)
        return pairs(s, nbasis, start);
    int r = s->r, *row = s->basis + (size_t)nbasis * r;
    for (int j = start; nbasis > 0 && j < s->n; j++)
        step(s, nbasis, j);
    for (int j = start; j <= s->n - depth_left; j++) {
        memcpy(row, image(s, nbasis, j), sizeof(int) * r);
        if ((s->pivots[nbasis] = lead_one(s, row)) == r)
            return 1;
        if (depth_left > 1 && dfs(s, nbasis + 1, j + 1, depth_left - 1))
            return 1;
    }
    return 0;
}

/* The ints of buf if it holds at least `room` aligned ints, the first `need`
   of them each in [0, q); else NULL with ValueError set.  An empty array's
   buffer may be unaligned, so a short buffer is reported as short first. */
static int *check_room(const Py_buffer *buf, Py_ssize_t room, Py_ssize_t need, int q,
                       const char *name)
{
    int *x = buf->buf;
    Py_ssize_t len = buf->len / (Py_ssize_t)sizeof(int), i = 0;
    if (buf->itemsize == sizeof(int) && len < room)
        PyErr_Format(PyExc_ValueError, "%s holds %zd entries, needs %zd", name, len, room);
    else if (buf->itemsize != sizeof(int) || (room > 0 && (uintptr_t)x % sizeof(int)))
        PyErr_Format(PyExc_ValueError, "%s must be an array('i')", name);
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

/* Deepen from wmin to wmax.  Depth w keeps w - 2 basis rows, their pivots
   and w - 2 levels of n images, or one of each at w <= 2.  Nothing carries
   over from one depth to the next, so the buffer grows with w and holds only
   what the depths searched so far need. */
static PyObject *search(Search *s, int wmin, int wmax)
{
    int found = 0;
    size_t slots = 2, n = s->n, r = s->r;
    void *buf = NULL;
    wmax = wmax < s->n ? wmax : s->n;
    while (slots < 2 * n)
        slots *= 2;
    s->mask = slots - 1;
    for (int w = wmin; w <= wmax && !found; w++) {
        size_t depth = w > 2 ? w - 2 : 1;
        /* the slots, the pivots, the basis rows, then the levels */
        void *grown = PyMem_Realloc(buf, sizeof(int) * (slots + depth * (r + 1 + n * r)));
        if (grown == NULL) {
            PyMem_Free(buf);
            return PyErr_NoMemory();
        }
        buf = s->slots = grown;
        s->pivots = s->slots + slots;
        s->basis = s->pivots + depth;
        s->images = s->basis + depth * r;
        if (dfs(s, 0, 0, w))
            found = w;
    }
    PyMem_Free(buf);
    return PyLong_FromLong(found);
}

PyDoc_STRVAR(min_dependent_columns_doc,
"min_dependent_columns(cols, r, n, q, mul, sub, inv, wmax, wmin=1)\n--\n\n"
"See _minweight_py.min_dependent_columns.");

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
   independent ones normalized; the flags as bytes.  Each row is reduced in
   basis row rank, below both the first rank + m and r. */
static PyObject *extend(Search *s, const int *rows, int m, int rank)
{
    int n = s->r;
    PyObject *flags = PyBytes_FromStringAndSize(NULL, m);
    if (flags == NULL)
        return NULL;
    char *flag = PyBytes_AS_STRING(flags);
    for (int i = 0; i < m; i++) {
        flag[i] = 0;
        if (rank == n)
            continue;
        int *row = s->basis + (size_t)rank * n;
        memcpy(row, rows + (size_t)i * n, sizeof(int) * n);
        reduce(s, row, rank);
        int p = lead_one(s, row);
        if (p < n) {
            s->pivots[rank++] = p;
            flag[i] = 1;
        }
    }
    return flags;
}

PyDoc_STRVAR(extend_echelon_doc,
"extend_echelon(rows, m, n, q, mul, sub, inv, basis, pivots, rank)\n--\n\n"
"See _minweight_py.extend_echelon.");

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
    Py_ssize_t room = (Py_ssize_t)rank + m < s.r ? (Py_ssize_t)rank + m : s.r;
    if (m < 0 || s.r < 0 || s.q < 0 || rank < 0 || rank > s.r || s.q > MAX_Q)
        PyErr_Format(PyExc_ValueError,
                     "m, n and q must be non-negative, rank in [0, n] "
                     "and q at most %d", MAX_Q);
    else if ((in = check(&rows, (Py_ssize_t)m * s.r, s.q, "rows"))
             && (s.mul = check(&mul, (Py_ssize_t)s.q * s.q, s.q, "mul"))
             && (s.sub = check(&sub, (Py_ssize_t)s.q * s.q, s.q, "sub"))
             && (s.inv = check(&inv, s.q, s.q, "inv"))
             && (s.basis = check_out(&basis, room * s.r, (Py_ssize_t)rank * s.r, s.q,
                                     "basis"))
             && (s.pivots = check_out(&pivots, room, rank, s.r, "pivots")))
        result = extend(&s, in, m, rank);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&mul);
    PyBuffer_Release(&sub);
    PyBuffer_Release(&inv);
    PyBuffer_Release(&basis);
    PyBuffer_Release(&pivots);
    return result;
}

/* Row start + i of out = row parents[i] of out times row factors[i] of
   values, for i < m; None, or NULL with ValueError when a parent is not
   before its row or holds an entry outside [0, q).  Rows before the bad one
   are written. */
static PyObject *multiply(int *out, Py_ssize_t start, Py_ssize_t m, const int *parents,
                          const int *factors, const int *values, int n, int q,
                          const int *mul)
{
    for (Py_ssize_t i = 0; i < m; i++) {
        if (parents[i] >= start + i)
            return PyErr_Format(PyExc_ValueError, "parents[%zd] = %d is not before row %zd",
                                i, parents[i], start + i);
        const int *a = out + (size_t)parents[i] * n, *b = values + (size_t)factors[i] * n;
        int *c = out + (size_t)(start + i) * n;
        for (int k = 0; k < n; k++) {
            if ((unsigned)a[k] >= (unsigned)q)
                return PyErr_Format(PyExc_ValueError, "rows[%zd] = %d is not in [0, %d)",
                                    (Py_ssize_t)parents[i] * n + k, a[k], q);
            c[k] = mul[a[k] * q + b[k]];
        }
    }
    Py_RETURN_NONE;
}

PyDoc_STRVAR(multiply_rows_doc,
"multiply_rows(rows, start, parents, factors, values, n, q, mul)\n--\n\n"
"See _minweight_py.multiply_rows.");

static PyObject *multiply_rows(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer rows, parents, factors, values, mul;
    int start, n, q, *out;
    const int *par, *fac, *val, *table;
    PyObject *result = NULL;
    if (!PyArg_ParseTuple(args, "y*iy*y*y*iiy*", &rows, &start, &parents, &factors, &values,
                          &n, &q, &mul))
        return NULL;
    Py_ssize_t m = parents.len / (Py_ssize_t)sizeof(int);
    Py_ssize_t width = n > 0 ? values.len / (Py_ssize_t)sizeof(int) / n : 0;
    if (start < 0 || n < 1 || q < 1 || q > MAX_Q || width > INT_MAX || start + m > INT_MAX)
        PyErr_Format(PyExc_ValueError,
                     "start must be non-negative, n positive and q in [1, %d]", MAX_Q);
    else if (factors.len != parents.len)
        PyErr_SetString(PyExc_ValueError, "parents and factors must have one length");
    else if ((out = check_out(&rows, (start + m) * n, 0, q, "rows"))
             && (par = check(&parents, m, (int)(start + m), "parents"))
             && (fac = check(&factors, m, (int)width, "factors"))
             && (val = check(&values, width * n, q, "values"))
             && (table = check(&mul, (Py_ssize_t)q * q, q, "mul")))
        result = multiply(out, start, m, par, fac, val, n, q, table);
    PyBuffer_Release(&rows);
    PyBuffer_Release(&parents);
    PyBuffer_Release(&factors);
    PyBuffer_Release(&values);
    PyBuffer_Release(&mul);
    return result;
}

/* out[a * q + b] = a - b, digit by digit mod p: the low digits subtract
   mod p, and the rest is p times the entry at (a / p, b / p), which comes
   earlier in the table (out[0] is set first, as it reads itself). */
static void digitwise(int *out, const int *low, const int *high, int p, int q)
{
    out[0] = 0;
    for (int a = 0; a < q; a++) {
        int *row = out + (size_t)a * q;
        const int *rest = out + (size_t)high[a] * q;
        for (int b = 0; b < q; b++) {
            int d = low[a] - low[b];
            row[b] = (d < 0 ? d + p : d) + p * rest[high[b]];
        }
    }
}

/* Fill the tables from the q - 1 powers, each in [0, q); 0, or -1 with
   ValueError when a power is zero or repeats one before it, written before
   any table, or with MemoryError. */
static int fill(const int *powers, int p, int q, int *sub, int *mul)
{
    int order = q - 1;
    /* the logarithms, the powers twice over, and each value's low digit and
       the rest of its digits */
    int *logs = PyMem_Malloc(sizeof(int) * ((size_t)q * 3 + 2 * (size_t)order));
    if (logs == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    int *cycle = logs + q, *low = cycle + 2 * (size_t)order, *high = low + q;
    for (int v = 0; v < q; v++) {
        logs[v] = -1;
        low[v] = v % p;
        high[v] = v / p;
    }
    for (int k = 0; k < order; k++) {
        if (powers[k] == 0 || logs[powers[k]] >= 0) {
            PyErr_Format(PyExc_ValueError,
                         "powers[%d] = %d is zero or repeats an earlier power", k, powers[k]);
            PyMem_Free(logs);
            return -1;
        }
        logs[powers[k]] = k;
        cycle[k] = cycle[k + order] = powers[k];
    }
    digitwise(sub, low, high, p, q);
    memset(mul, 0, sizeof(int) * (size_t)q); /* 0 * b */
    for (int a = 1; a < q; a++) {
        int *row = mul + (size_t)a * q;
        const int *from = cycle + logs[a];
        row[0] = 0;
        for (int b = 1; b < q; b++)
            row[b] = from[logs[b]];
    }
    PyMem_Free(logs);
    return 0;
}

PyDoc_STRVAR(field_tables_doc,
"field_tables(powers, p, m, sub, mul)\n--\n\n"
"See _minweight_py.field_tables.");

static PyObject *field_tables(PyObject *Py_UNUSED(self), PyObject *args)
{
    Py_buffer powers, sub, mul;
    int p, m, q = 1, *s, *x;
    const int *pw;
    PyObject *result = NULL;
    if (!PyArg_ParseTuple(args, "y*iiy*y*", &powers, &p, &m, &sub, &mul))
        return NULL;
    for (int i = 0; i < m && p >= 2 && p <= MAX_Q && q <= MAX_Q; i++)
        q *= p; /* at most MAX_Q * MAX_Q, which fits in an int */
    if (p < 2 || m < 1 || p > MAX_Q || q > MAX_Q)
        PyErr_Format(PyExc_ValueError,
                     "p must be at least 2, m at least 1 and p^m at most %d", MAX_Q);
    else if (powers.len != (Py_ssize_t)sizeof(int) * (q - 1))
        PyErr_Format(PyExc_ValueError, "powers must hold q - 1 = %d ints", q - 1);
    else if ((pw = check(&powers, q - 1, q, "powers"))
             && (s = check_out(&sub, (Py_ssize_t)q * q, 0, q, "sub"))
             && (x = check_out(&mul, (Py_ssize_t)q * q, 0, q, "mul"))
             && fill(pw, p, q, s, x) == 0)
        result = Py_NewRef(Py_None);
    PyBuffer_Release(&powers);
    PyBuffer_Release(&sub);
    PyBuffer_Release(&mul);
    return result;
}

static PyMethodDef methods[] = {
    {"min_dependent_columns", min_dependent_columns, METH_VARARGS, min_dependent_columns_doc},
    {"extend_echelon", extend_echelon, METH_VARARGS, extend_echelon_doc},
    {"field_tables", field_tables, METH_VARARGS, field_tables_doc},
    {"multiply_rows", multiply_rows, METH_VARARGS, multiply_rows_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, .m_name = "_minweight", .m_size = -1, .m_methods = methods,
    .m_doc = "Compiled column search, echelon extension, field tables and row products.",
};

PyMODINIT_FUNC PyInit__minweight(void)
{
    return PyModule_Create(&module);
}
