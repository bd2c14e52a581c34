/* The compiled copy of environment.env_step's substep loop.
 *
 * `run` advances both aircraft and any missile in flight over plain doubles,
 * substep by substep, exactly as the Python loop in environment.env_step
 * does: each missile first (dynamics of missile._substep, guidance of
 * missile.pn_commands), against the aircraft as it was at the start of the
 * substep, then each aircraft (dynamics._substep).  It stops after the first
 * substep that can have ended the engagement and leaves the verdict to
 * environment._evaluate, which may resume it at the next substep.
 *
 * Every expression keeps the operation order of the Python it copies, and the
 * build turns off floating-point contraction and builtin substitution, so the
 * results are the reference's bit for bit.  sin, cos, tan, atan2 (with
 * CPython's handling of zeros and infinities), sqrt and remainder are the C
 * library's, as they are for CPython's math module; hypot is CPython's own
 * algorithm and is called through math.hypot.
 *
 * Where the reference would raise (a guard of either model, a division by a
 * zero missile mass) or where a value is not finite, `run` returns None
 * instead, and env_step replays the decision through the Python loop, which
 * raises the reference's exception or yields its values.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

/* The constants of dynamics and environment; CONSTANTS exposes them so that
 * a test holds them equal to the Python ones. */
static const double PI = 3.141592653589793;
static const double TAU = 6.283185307179586;
static const double G = 9.8;
static const double PHYSICS_DT = 0.02;
static const double V_FLOOR = 100.0;
#define GAMMA_LIMIT (3.141592653589793 / 2 - 1e-6)
static const double GROUND_FLOOR = 100.0;
static const double EPISODE_TIME_LIMIT = 200.0;

/* Missile status codes, as environment passes them. */
enum { NO_MISSILE = 0, IN_FLIGHT = 1, HIT = 2, EXPIRED = 3 };

/* The fields of missile.MissileParams, in declaration order. */
typedef struct {
    double p0, g0, gt, tw, rho, sm, cdm, k_pn, max_flight_time, hit_radius,
        min_speed, max_command;
} Params;

#define N_PARAMS 12

/* Return codes of the steppers below. */
enum { OK = 0, BAIL = 1, FAIL = -1 };

static PyObject *math_hypot;

static double
clip_gamma(double g)
{
    return g > GAMMA_LIMIT ? GAMMA_LIMIT : g < -GAMMA_LIMIT ? -GAMMA_LIMIT : g;
}

static double
wrap_angle(double a)
{
    double r = remainder(a, TAU);
    return r == -PI ? PI : r;
}

/* CPython's m_atan2: atan2 with its own treatment of infinities and zeros. */
static double
py_atan2(double y, double x)
{
    if (isnan(x) || isnan(y))
        return NAN;
    if (isinf(y)) {
        if (isinf(x)) {
            if (copysign(1., x) == 1.)
                return copysign(0.25 * PI, y);
            return copysign(0.75 * PI, y);
        }
        return copysign(0.5 * PI, y);
    }
    if (isinf(x) || y == 0.) {
        if (copysign(1., x) == 1.)
            return copysign(0., y);
        return copysign(PI, y);
    }
    return atan2(y, x);
}

static int
py_hypot(double a, double b, double *out)
{
    PyObject *args[2], *res;

    args[0] = PyFloat_FromDouble(a);
    args[1] = PyFloat_FromDouble(b);
    if (args[0] == NULL || args[1] == NULL) {
        Py_XDECREF(args[0]);
        Py_XDECREF(args[1]);
        return FAIL;
    }
    res = PyObject_Vectorcall(math_hypot, args, 2, NULL);
    Py_DECREF(args[0]);
    Py_DECREF(args[1]);
    if (res == NULL)
        return FAIL;
    *out = PyFloat_AsDouble(res);
    Py_DECREF(res);
    return PyErr_Occurred() ? FAIL : OK;
}

static int
all_finite(const double *a, int n)
{
    int i;
    for (i = 0; i < n; i++)
        if (!isfinite(a[i]))
            return 0;
    return 1;
}

/* dynamics._derivatives of (v, gamma, phi) into k; BAIL on either guard. */
static int
aircraft_rates(double v, double gamma, double phi, double nx, double nz,
               double cmu, double smu, double k[6])
{
    double cg, sg, vcg;

    if (v < 1e-6)
        return BAIL;
    cg = cos(gamma);
    if (fabs(cg) < 1e-9)
        return BAIL;
    sg = sin(gamma);
    vcg = v * cg;
    k[0] = vcg * cos(phi);
    k[1] = vcg * sin(phi);
    k[2] = v * sg;
    k[3] = G * (nx - sg);
    k[4] = (G / v) * (nz * cmu - cg);
    k[5] = (G / vcg) * nz * smu;
    return OK;
}

/* dynamics._substep on s = (x, y, z, v, gamma, phi), in place. */
static int
aircraft_substep(double s[6], const double c[4], double dt)
{
    double k1[6], k2[6], k3[6], k4[6];
    double h = dt / 2.0, sixth, v, gamma, phi;

    if (aircraft_rates(s[3], s[4], s[5], c[0], c[1], c[2], c[3], k1)
        || aircraft_rates(s[3] + h * k1[3], clip_gamma(s[4] + h * k1[4]),
                          s[5] + h * k1[5], c[0], c[1], c[2], c[3], k2)
        || aircraft_rates(s[3] + h * k2[3], clip_gamma(s[4] + h * k2[4]),
                          s[5] + h * k2[5], c[0], c[1], c[2], c[3], k3)
        || aircraft_rates(s[3] + dt * k3[3], clip_gamma(s[4] + dt * k3[4]),
                          s[5] + dt * k3[5], c[0], c[1], c[2], c[3], k4))
        return BAIL;

    sixth = dt / 6.0;
    v = s[3] + sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3]);
    gamma = s[4] + sixth * (k1[4] + 2.0 * (k2[4] + k3[4]) + k4[4]);
    phi = wrap_angle(s[5] + sixth * (k1[5] + 2.0 * (k2[5] + k3[5]) + k4[5]));
    if (v < V_FLOOR)
        v = V_FLOOR;
    s[0] = s[0] + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]);
    s[1] = s[1] + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]);
    s[2] = s[2] + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2]);
    s[3] = v;
    s[4] = clip_gamma(gamma);
    s[5] = phi;
    return OK;
}

/* missile.pn_commands; leaves the commands as they were where the reference
 * raises ZeroRangeError or GuidanceSingularityError. */
static void
pn_commands(const Params *p, double rx, double ry, double rz, double wx,
            double wy, double wz, double vm, double gamma_t, double *n_mc,
            double *n_mh)
{
    double h2, r2, h, beta_dot, epsilon_dot, epsilon, beta, s, cs, mc, mh, lim;

    h2 = rx * rx + ry * ry;
    r2 = h2 + rz * rz;
    if (sqrt(r2) < 1e-9)
        return;
    h = sqrt(h2);
    if (h < 1e-9)
        return;
    beta_dot = (wy * rx - wx * ry) / h2;
    epsilon_dot = (h2 * wz - rz * (wx * rx + wy * ry)) / (r2 * h);
    epsilon = py_atan2(rz, h);
    beta = py_atan2(ry, rx);
    if (beta > 0.5 * PI)
        beta -= PI;
    else if (beta < -0.5 * PI)
        beta += PI;
    s = epsilon + beta;
    cs = cos(s);
    if (fabs(cs) < 1e-9)
        return;
    mc = p->k_pn * (vm * cos(gamma_t) / G)
         * (beta_dot + tan(epsilon) * tan(s) * epsilon_dot);
    mh = vm * p->k_pn * epsilon_dot / (G * cs);
    lim = p->max_command;
    *n_mc = mc < -lim ? -lim : mc > lim ? lim : mc;
    *n_mh = mh < -lim ? -lim : mh > lim ? lim : mh;
}

/* missile._derivatives into k; BAIL on either guard or a zero mass. */
static int
missile_rates(const Params *p, double v, double gamma, double phi, double t,
              double n_mc, double n_mh, double k[6])
{
    double cg, gm, pm, qm, sg, vcg;

    if (v < 1e-6)
        return BAIL;
    cg = cos(gamma);
    if (fabs(cg) < 1e-9)
        return BAIL;
    gm = p->g0 - p->gt * (p->tw < t ? p->tw : t);
    if (gm == 0.0)
        return BAIL;
    pm = t <= p->tw ? p->p0 : 0.0;
    qm = 0.5 * p->rho * v * v * p->sm * p->cdm;
    sg = sin(gamma);
    vcg = v * cg;
    k[0] = vcg * cos(phi);
    k[1] = vcg * sin(phi);
    k[2] = v * sg;
    k[3] = (pm - qm) * G / gm - G * sg;
    k[4] = (n_mh - cg) * G / v;
    k[5] = n_mc * G / vcg;
    return OK;
}

/* missile._segment_min_distance. */
static double
segment_min_distance(const double r0[3], const double r1[3])
{
    double dx = r1[0] - r0[0], dy = r1[1] - r0[1], dz = r1[2] - r0[2];
    double dd = dx * dx + dy * dy + dz * dz, s, cx, cy, cz;

    if (dd == 0.0) {
        s = 0.0;
    }
    else {
        s = -(r0[0] * dx + r0[1] * dy + r0[2] * dz) / dd;
        s = 0.0 > s ? 0.0 : s;   /* max(s, 0.0) */
        s = 1.0 < s ? 1.0 : s;   /* min(s, 1.0) */
    }
    cx = r0[0] + s * dx;
    cy = r0[1] + s * dy;
    cz = r0[2] + s * dz;
    return sqrt(cx * cx + cy * cy + cz * cz);
}

/* missile._substep on m = (x, y, z, vm, gamma, phi, t, n_mc, n_mh), in
 * place, against the aircraft a = (x, y, z, v, gamma, phi). */
static int
missile_substep(const Params *p, double m[9], const double a[6], double dt,
                int *status)
{
    double tv[3], k1[6], k2[6], k3[6], k4[6], r0[3], r1[3];
    double x = m[0], y = m[1], z = m[2], v = m[3], gamma = m[4], phi = m[5];
    double t = m[6], n_mc = m[7], n_mh = m[8];
    double cg, vcg, gamma_t, hyp, h = dt / 2.0, sixth, nx, ny, nz, nv, ngamma,
        nphi, nt;

    /* dynamics._velocity of the target */
    cg = cos(a[4]);
    tv[0] = a[3] * cg * cos(a[5]);
    tv[1] = a[3] * cg * sin(a[5]);
    tv[2] = a[3] * sin(a[4]);

    vcg = v * cos(gamma);
    if (py_hypot(tv[0], tv[1], &hyp))
        return FAIL;
    gamma_t = py_atan2(tv[2], hyp);
    pn_commands(p, a[0] - x, a[1] - y, a[2] - z, tv[0] - vcg * cos(phi),
                tv[1] - vcg * sin(phi), tv[2] - v * sin(gamma), v, gamma_t,
                &n_mc, &n_mh);

    if (missile_rates(p, v, gamma, phi, t, n_mc, n_mh, k1)
        || missile_rates(p, v + h * k1[3], clip_gamma(gamma + h * k1[4]),
                         phi + h * k1[5], t + h, n_mc, n_mh, k2)
        || missile_rates(p, v + h * k2[3], clip_gamma(gamma + h * k2[4]),
                         phi + h * k2[5], t + h, n_mc, n_mh, k3)
        || missile_rates(p, v + dt * k3[3], clip_gamma(gamma + dt * k3[4]),
                         phi + dt * k3[5], t + dt, n_mc, n_mh, k4))
        return BAIL;

    sixth = dt / 6.0;
    nx = x + sixth * (k1[0] + 2.0 * (k2[0] + k3[0]) + k4[0]);
    ny = y + sixth * (k1[1] + 2.0 * (k2[1] + k3[1]) + k4[1]);
    nz = z + sixth * (k1[2] + 2.0 * (k2[2] + k3[2]) + k4[2]);
    nv = v + sixth * (k1[3] + 2.0 * (k2[3] + k3[3]) + k4[3]);
    ngamma = clip_gamma(gamma + sixth * (k1[4] + 2.0 * (k2[4] + k3[4]) + k4[4]));
    nphi = phi + sixth * (k1[5] + 2.0 * (k2[5] + k3[5]) + k4[5]);
    nt = t + dt;

    /* Closest approach of the target relative to the missile over the step. */
    r0[0] = a[0] - x;
    r0[1] = a[1] - y;
    r0[2] = a[2] - z;
    r1[0] = a[0] + dt * tv[0] - nx;
    r1[1] = a[1] + dt * tv[1] - ny;
    r1[2] = a[2] + dt * tv[2] - nz;
    if (segment_min_distance(r0, r1) < p->hit_radius)
        *status = HIT;
    else if (nt > p->max_flight_time || nv < p->min_speed)
        *status = EXPIRED;
    else
        *status = IN_FLIGHT;

    m[0] = nx;
    m[1] = ny;
    m[2] = nz;
    m[3] = nv;
    m[4] = ngamma;
    m[5] = wrap_angle(nphi);
    m[6] = nt;
    m[7] = n_mc;
    m[8] = n_mh;
    return OK;
}

/* Unpack a tuple of exactly n exact floats; 0 when it is anything else. */
static int
floats_of(PyObject *tuple, double *out, Py_ssize_t n)
{
    Py_ssize_t i;
    PyObject *item;

    if (!PyTuple_CheckExact(tuple) || PyTuple_GET_SIZE(tuple) != n)
        return 0;
    for (i = 0; i < n; i++) {
        item = PyTuple_GET_ITEM(tuple, i);
        if (!PyFloat_CheckExact(item))
            return 0;
        out[i] = PyFloat_AS_DOUBLE(item);
    }
    return all_finite(out, (int)n);
}

static PyObject *
tuple_of(const double *a, Py_ssize_t n)
{
    Py_ssize_t i;
    PyObject *t = PyTuple_New(n), *f;

    if (t == NULL)
        return NULL;
    for (i = 0; i < n; i++) {
        f = PyFloat_FromDouble(a[i]);
        if (f == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, f);
    }
    return t;
}

PyDoc_STRVAR(run_doc,
"run(b, r, bk, rk, bs, rs, controls, params, t0, start, n)\n"
"\n"
"Substeps start..n-1 of env_step's loop.  b and r are the aircraft tuples\n"
"(x, y, z, v, gamma, phi); bk and rk the missiles' kinematics tuples, read\n"
"only while in flight; bs and rs the missile status codes (0 none,\n"
"1 in flight, 2 hit, 3 expired); controls (nx, nz, cos mu, sin mu) for blue\n"
"then red; params the MissileParams fields in order, or None when no\n"
"missile is in flight; t0 the decision's start time.\n"
"\n"
"Returns (stopped, k, b, r, bk, rk, bs, rs) after k substeps in all, where\n"
"stopped says that the k-th substep can have ended the engagement, or None\n"
"where the Python loop must run the decision instead.");

/* Advance a live missile one substep; BAIL also when it leaves the finite
 * range, where the reference may raise. */
static int
step_missile(const Params *p, double m[9], const double a[6], long *status)
{
    int st, code = missile_substep(p, m, a, PHYSICS_DT, &st);

    if (code != OK)
        return code;
    *status = st;
    return all_finite(m, 9) ? OK : BAIL;
}

static PyObject *
run(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    double b[6], r[6], bk[9], rk[9], ctrl[8], pv[N_PARAMS], t0, t;
    Params p;
    long bs, rs, start, n, i, k;
    int stopped = 0, code = OK, b_live, r_live;
    PyObject *out;

    if (nargs != 11) {
        PyErr_Format(PyExc_TypeError, "run expects 11 arguments, got %zd", nargs);
        return NULL;
    }
    bs = PyLong_AsLong(args[4]);
    rs = PyLong_AsLong(args[5]);
    t0 = PyFloat_AsDouble(args[8]);
    start = PyLong_AsLong(args[9]);
    n = PyLong_AsLong(args[10]);
    if (PyErr_Occurred())
        return NULL;
    if (!floats_of(args[0], b, 6) || !floats_of(args[1], r, 6)
        || (bs == IN_FLIGHT && !floats_of(args[2], bk, 9))
        || (rs == IN_FLIGHT && !floats_of(args[3], rk, 9))
        || !floats_of(args[6], ctrl, 8))
        Py_RETURN_NONE;
    b_live = bs == IN_FLIGHT;
    r_live = rs == IN_FLIGHT;
    if (b_live || r_live) {
        if (!PyTuple_Check(args[7]) || PyTuple_GET_SIZE(args[7]) != N_PARAMS) {
            PyErr_SetString(PyExc_TypeError, "params must be a 12-tuple");
            return NULL;
        }
        for (i = 0; i < N_PARAMS; i++) {
            pv[i] = PyFloat_AsDouble(PyTuple_GET_ITEM(args[7], i));
            if (pv[i] == -1.0 && PyErr_Occurred())
                return NULL;
        }
        memcpy(&p, pv, sizeof p);
    }

    k = start;
    for (i = start; i < n && !stopped; i++) {
        /* Missiles first, against the aircraft at the start of the substep. */
        if (bs == IN_FLIGHT && (code = step_missile(&p, bk, r, &bs)) != OK)
            break;
        if (rs == IN_FLIGHT && (code = step_missile(&p, rk, b, &rs)) != OK)
            break;
        if ((code = aircraft_substep(b, ctrl, PHYSICS_DT)) != OK
            || (code = aircraft_substep(r, ctrl + 4, PHYSICS_DT)) != OK)
            break;
        if (!all_finite(b, 6) || !all_finite(r, 6)) {
            code = BAIL;
            break;
        }
        k = i + 1;
        t = t0 + (double)k * PHYSICS_DT;
        /* Only a hit, two spent missiles, ground contact or the time limit
         * can end the engagement; environment._evaluate decides which. */
        stopped = bs == HIT || rs == HIT || b[2] < GROUND_FLOOR
                  || r[2] < GROUND_FLOOR || t >= EPISODE_TIME_LIMIT
                  || (bs == EXPIRED && rs == EXPIRED);
    }
    if (code == FAIL)
        return NULL;
    if (code == BAIL)
        Py_RETURN_NONE;

    out = PyTuple_New(8);
    if (out == NULL)
        return NULL;
    PyTuple_SET_ITEM(out, 0, PyBool_FromLong(stopped));
    PyTuple_SET_ITEM(out, 1, PyLong_FromLong(k));
    PyTuple_SET_ITEM(out, 2, tuple_of(b, 6));
    PyTuple_SET_ITEM(out, 3, tuple_of(r, 6));
    /* A missile's tuple is new only if it was in flight on entry. */
    PyTuple_SET_ITEM(out, 4, b_live ? tuple_of(bk, 9) : Py_NewRef(args[2]));
    PyTuple_SET_ITEM(out, 5, r_live ? tuple_of(rk, 9) : Py_NewRef(args[3]));
    PyTuple_SET_ITEM(out, 6, PyLong_FromLong(bs));
    PyTuple_SET_ITEM(out, 7, PyLong_FromLong(rs));
    for (i = 0; i < 8; i++) {
        if (PyTuple_GET_ITEM(out, i) == NULL) {
            Py_DECREF(out);
            return NULL;
        }
    }
    return out;
}

static PyMethodDef kernel_methods[] = {
    {"run", (PyCFunction)(void (*)(void))run, METH_FASTCALL, run_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "The compiled copy of env_step's substep loop.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *module, *math, *constants;

    math = PyImport_ImportModule("math");
    if (math == NULL)
        return NULL;
    math_hypot = PyObject_GetAttrString(math, "hypot");
    Py_DECREF(math);
    if (math_hypot == NULL)
        return NULL;
    module = PyModule_Create(&kernel_module);
    if (module == NULL)
        return NULL;
    constants = Py_BuildValue("{s:d,s:d,s:d,s:d,s:d,s:d,s:d,s:d}",
                              "pi", PI, "tau", TAU, "G", G,
                              "PHYSICS_DT", PHYSICS_DT, "V_FLOOR", V_FLOOR,
                              "GAMMA_LIMIT", GAMMA_LIMIT,
                              "GROUND_FLOOR", GROUND_FLOOR,
                              "EPISODE_TIME_LIMIT", EPISODE_TIME_LIMIT);
    if (constants == NULL || PyModule_AddObject(module, "CONSTANTS", constants)) {
        Py_XDECREF(constants);
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
