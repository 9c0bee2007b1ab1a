/* Compiled Gray-PSK demodulation/error-count kernel.  Same contract as
 * `_psk_kernel_py.count_bit_errors`, and bit-identical to it on the same
 * inputs: constellation points come from the shared tables, the received
 * sample is plain multiply/add (the build disables FP contraction), and
 * nearest-phase decisions are strict-greater argmax scans resolving ties to
 * the lowest index.  The loop runs without the GIL, so threads scale.
 *
 * Read rule: `u` and `noise` are consumed from the front, in slot order.  An
 * outage block (m < 2) reads nothing; a BPSK slot reads the next uniform and
 * the next normal (in-phase only); an M >= 4 slot reads the next uniform and
 * the next two normals, in-phase first.  Entries after the last one read are
 * never touched, and the full lengths (nb*k and 2*nb*k) bound both cursors. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <string.h>

enum { AMP, M_PER_BLOCK, U, NOISE, TAB_RE, TAB_IM, TAB_OFFSET, POPCOUNT, N_BUFFERS };

/* Stores the error count over all blocks in *errors and returns NULL, or
 * returns a message naming the input that would be read out of range. */
static const char *tally(Py_buffer *v, Py_ssize_t k, long long *errors)
{
    const double *amp = v[AMP].buf, *u = v[U].buf, *noise = v[NOISE].buf;
    const double *tab_re = v[TAB_RE].buf, *tab_im = v[TAB_IM].buf;
    const long long *m_per_block = v[M_PER_BLOCK].buf, *tab_offset = v[TAB_OFFSET].buf;
    const long long *popcount = v[POPCOUNT].buf;
    const double sqrt_half = sqrt(0.5);
    long long total = 0;
    Py_ssize_t draw = 0, normal = 0; /* cursors into u and noise */
    for (Py_ssize_t block = 0; block < v[AMP].shape[0]; block++) {
        const long long m = m_per_block[block];
        if (m < 2)
            continue;
        const long long base = m < v[TAB_OFFSET].shape[0] ? tab_offset[m] : -1;
        if ((m & (m - 1)) || base < 0 || base + m > v[TAB_RE].shape[0] || m > v[POPCOUNT].shape[0])
            return "constellation size not in the tables";
        const double a = amp[block];
        const double *pre = tab_re + base, *pim = tab_im + base;
        for (Py_ssize_t slot = 0; slot < k; slot++) {
            const double uniform = u[draw++];
            if (!(uniform >= 0.0 && uniform < 1.0))
                return "uniforms must lie in [0, 1)";
            const long long sent = (long long)(uniform * m);
            const double re = a * pre[sent] + sqrt_half * noise[normal++];
            long long decided = 0;
            if (m == 2) {
                decided = re < 0.0;
            } else {
                const double im = a * pim[sent] + sqrt_half * noise[normal++];
                double best = re * pre[0] + im * pim[0];
                for (long long cand = 1; cand < m; cand++) {
                    const double score = re * pre[cand] + im * pim[cand];
                    if (score > best) {
                        best = score;
                        decided = cand;
                    }
                }
            }
            total += popcount[(sent ^ (sent >> 1)) ^ (decided ^ (decided >> 1))];
        }
    }
    *errors = total;
    return NULL;
}

static PyObject *count_bit_errors(PyObject *self, PyObject *args, PyObject *kwargs)
{
    static char *names[] = {"amp", "m_per_block", "u", "noise", "symbols_per_block",
                            "tab_re", "tab_im", "tab_offset", "popcount", NULL};
    PyObject *obj[N_BUFFERS], *result = NULL;
    Py_buffer v[N_BUFFERS];
    Py_ssize_t k;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "OOOOnOOOO", names, &obj[AMP], &obj[M_PER_BLOCK],
                                     &obj[U], &obj[NOISE], &k, &obj[TAB_RE], &obj[TAB_IM],
                                     &obj[TAB_OFFSET], &obj[POPCOUNT]))
        return NULL;

    /* Each buffer must be 1-D, C-contiguous, with 8-byte float64 or int64 items. */
    int held = 0;
    for (; held < N_BUFFERS; held++) {
        int integer = held == M_PER_BLOCK || held == TAB_OFFSET || held == POPCOUNT;
        if (PyObject_GetBuffer(obj[held], &v[held], PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
            goto done;
        const char *fmt = v[held].format;
        fmt += (fmt[0] == '@' || fmt[0] == '=');
        if (v[held].ndim != 1 || v[held].itemsize != 8 || strlen(fmt) != 1 ||
            !strchr(integer ? "lq" : "d", fmt[0])) {
            /* names[] has symbols_per_block between noise and tab_re. */
            PyErr_Format(PyExc_ValueError, "%s must be a 1-D contiguous %s array",
                         names[held <= NOISE ? held : held + 1], integer ? "int64" : "float64");
            PyBuffer_Release(&v[held]);
            goto done;
        }
    }
    const Py_ssize_t nb = v[AMP].shape[0];
    if (k < 0 || (k > 0 && nb > PY_SSIZE_T_MAX / 2 / k) || v[M_PER_BLOCK].shape[0] != nb ||
        v[U].shape[0] != nb * k || v[NOISE].shape[0] != 2 * nb * k ||
        v[TAB_IM].shape[0] != v[TAB_RE].shape[0]) {
        PyErr_SetString(PyExc_ValueError, "array lengths disagree with amp and symbols_per_block");
        goto done;
    }

    long long errors = 0;
    const char *fault;
    Py_BEGIN_ALLOW_THREADS
    fault = tally(v, k, &errors);
    Py_END_ALLOW_THREADS
    result = fault ? PyErr_Format(PyExc_ValueError, "%s", fault) : PyLong_FromLongLong(errors);

done:
    while (held > 0)
        PyBuffer_Release(&v[--held]);
    return result;
}

static PyMethodDef methods[] = {{"count_bit_errors", (PyCFunction)(void (*)(void))count_bit_errors,
                                  METH_VARARGS | METH_KEYWORDS, "Count Gray-decoded bit errors."},
                                 {NULL, NULL, 0, NULL}};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "_psk_kernel", NULL, -1, methods};

PyMODINIT_FUNC PyInit__psk_kernel(void)
{
    PyObject *mod = PyModule_Create(&module);
    if (mod && PyModule_AddStringConstant(mod, "BACKEND", "compiled") < 0)
        Py_CLEAR(mod);
    return mod;
}
