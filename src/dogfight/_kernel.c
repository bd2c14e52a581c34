/* The compiled copy of environment._reference.
 *
 * `step` is a whole decision on a flat engagement, the tuple that matches
 * and the tree search pass to environment.env_step, its one caller (see
 * environment.flatten): the action checks of
 * _as_raw, dynamics.clamp_controls, the fire gate and
 * missile.launch_missile, the substeps, environment._evaluate and both
 * environment._features calls, in the Python code's order.  Each substep
 * advances any missile in flight first (dynamics of missile._substep,
 * guidance of missile.pn_commands), against the aircraft as it was at the
 * start of the substep, then each aircraft (dynamics._substep).
 *
 * Every expression keeps the operation order of the Python it copies, and the
 * build turns off floating-point contraction and builtin substitution, so the
 * results are the reference's bit for bit.  sin, cos, tan, atan2 (with
 * CPython's handling of zeros and infinities), sqrt, pow and remainder are
 * the C library's, as they are for CPython's math module and float power;
 * hypot is CPython's own algorithm and is called through math.hypot.
 * Python's min and max keep their first argument on a tie, which py_min and
 * py_max copy (C's fmin and fmax need not, on zeros of either sign).
 *
 * Where the reference would raise (a guard of either model, a malformed
 * action, an overflowing square) or where a value is not finite, `step`
 * returns None instead, and the caller runs the decision through
 * environment._reference, which raises the reference's exception or yields
 * its values.
 *
 * The model constants are not written here: kernel.defines passes each
 * Python definition as a macro (G, PHYSICS_DT, V_FLOOR, GAMMA_LIMIT, the
 * control bounds NX_MIN .. MU_MAX, GROUND_FLOOR, EPISODE_TIME_LIMIT,
 * FIRE_RANGE, FIRE_BEARING, DECISION_SUBSTEPS, the observation bounds
 * OBS_LO and OBS_HI, and the missile's THRUST, LAUNCH_MASS, BURN_RATE,
 * BURN_TIME, AIR_DENSITY, REFERENCE_AREA, DRAG_COEFFICIENT, NAV_GAIN,
 * MAX_FLIGHT_TIME, HIT_RADIUS, MIN_SPEED and MAX_COMMAND).
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>

#define PI 3.141592653589793
static const double TAU = 6.283185307179586;

/* environment.OBS_BOUNDS, feature by feature; the spans hi - lo are
 * computed at import, as the Python module computes them. */
#define OBS_DIM 13
static const double obs_lo[OBS_DIM] = OBS_LO;
static const double obs_hi[OBS_DIM] = OBS_HI;
static double obs_span[OBS_DIM];

/* Missile status and outcome codes, as environment passes them. */
enum { NO_MISSILE = 0, IN_FLIGHT = 1, HIT = 2, EXPIRED = 3 };
enum { ONGOING = 0, BLUE_WIN = 1, RED_WIN = 2, DRAW = 3 };

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
pn_commands(double rx, double ry, double rz, double wx, double wy, double wz,
            double vm, double gamma_t, double *n_mc, double *n_mh)
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
    mc = NAV_GAIN * (vm * cos(gamma_t) / G)
         * (beta_dot + tan(epsilon) * tan(s) * epsilon_dot);
    mh = vm * NAV_GAIN * epsilon_dot / (G * cs);
    lim = MAX_COMMAND;
    *n_mc = mc < -lim ? -lim : mc > lim ? lim : mc;
    *n_mh = mh < -lim ? -lim : mh > lim ? lim : mh;
}

/* missile._derivatives into k; BAIL on either guard.  The mass is never
 * zero: it falls to LAUNCH_MASS - BURN_RATE * BURN_TIME (86 kg) and stays
 * there.  Were it zero, the rates would not be finite, and step_missile
 * would hand back. */
static int
missile_rates(double v, double gamma, double phi, double t, double n_mc,
              double n_mh, double k[6])
{
    double cg, gm, pm, qm, sg, vcg;

    if (v < 1e-6)
        return BAIL;
    cg = cos(gamma);
    if (fabs(cg) < 1e-9)
        return BAIL;
    gm = LAUNCH_MASS - BURN_RATE * (BURN_TIME < t ? BURN_TIME : t);
    pm = t <= BURN_TIME ? THRUST : 0.0;
    qm = 0.5 * AIR_DENSITY * v * v * REFERENCE_AREA * DRAG_COEFFICIENT;
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
missile_substep(double m[9], const double a[6], double dt, int *status)
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
    pn_commands(a[0] - x, a[1] - y, a[2] - z, tv[0] - vcg * cos(phi),
                tv[1] - vcg * sin(phi), tv[2] - v * sin(gamma), v, gamma_t,
                &n_mc, &n_mh);

    if (missile_rates(v, gamma, phi, t, n_mc, n_mh, k1)
        || missile_rates(v + h * k1[3], clip_gamma(gamma + h * k1[4]),
                         phi + h * k1[5], t + h, n_mc, n_mh, k2)
        || missile_rates(v + h * k2[3], clip_gamma(gamma + h * k2[4]),
                         phi + h * k2[5], t + h, n_mc, n_mh, k3)
        || missile_rates(v + dt * k3[3], clip_gamma(gamma + dt * k3[4]),
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
    if (segment_min_distance(r0, r1) < HIT_RADIUS)
        *status = HIT;
    else if (nt > MAX_FLIGHT_TIME || nv < MIN_SPEED)
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

/* Advance a live missile one substep; BAIL also when it leaves the finite
 * range, where the reference may raise. */
static int
step_missile(double m[9], const double a[6], long *status)
{
    int st, code = missile_substep(m, a, PHYSICS_DT, &st);

    if (code != OK)
        return code;
    *status = st;
    return all_finite(m, 9) ? OK : BAIL;
}

/* environment._evaluate, on status codes. */
static int
evaluate(double blue_z, double red_z, long bs, long rs, int blue_fired,
         int red_fired, double t)
{
    int blue_hit = rs == HIT, red_hit = bs == HIT;

    if (blue_hit && red_hit)
        return DRAW;
    if (blue_hit)
        return RED_WIN;
    if (red_hit)
        return BLUE_WIN;
    if (blue_z < GROUND_FLOOR || red_z < GROUND_FLOOR)
        return DRAW;
    if (t >= EPISODE_TIME_LIMIT)
        return DRAW;
    if (blue_fired && red_fired && bs == EXPIRED && rs == EXPIRED)
        return DRAW;
    return ONGOING;
}

/* The substeps of a decision, in place, as environment._reference runs
 * them: every substep asks evaluate, and the first verdict other than
 * ONGOING ends the decision.  *outcome enters as ONGOING; *t leaves as the
 * time after the last substep run.  BAIL where the reference must run the
 * decision instead. */
static int
substeps(double b[6], double r[6], double bk[9], double rk[9], long *bs,
         long *rs, int bf, int rf, const double ctrl[8], double t0, double *t,
         long *outcome)
{
    long i;
    int code;

    *t = t0;
    for (i = 0; i < DECISION_SUBSTEPS && *outcome == ONGOING; i++) {
        /* Missiles first, against the aircraft at the start of the substep. */
        if (*bs == IN_FLIGHT && (code = step_missile(bk, r, bs)) != OK)
            return code;
        if (*rs == IN_FLIGHT && (code = step_missile(rk, b, rs)) != OK)
            return code;
        if ((code = aircraft_substep(b, ctrl, PHYSICS_DT)) != OK
            || (code = aircraft_substep(r, ctrl + 4, PHYSICS_DT)) != OK)
            return code;
        if (!all_finite(b, 6) || !all_finite(r, 6))
            return BAIL;
        *t = t0 + (double)(i + 1) * PHYSICS_DT;
        *outcome = evaluate(b[2], r[2], *bs, *rs, bf, rf, *t);
    }
    return OK;
}

/* Python's max(a, b) and min(a, b): the first argument unless the second
 * compares strictly greater (less). */
static double
py_max(double a, double b)
{
    return b > a ? b : a;
}

static double
py_min(double a, double b)
{
    return b < a ? b : a;
}

/* x ** 2 as CPython's float power computes it, which calls pow; BAIL where
 * the result is not finite, where a finite x raises OverflowError. */
static int
py_square(double x, double *out)
{
    *out = pow(x, 2.0);
    return isfinite(*out) ? OK : BAIL;
}

/* An exact int code in [0, hi]; 0 when it is anything else. */
static int
code_of(PyObject *obj, long hi, long *out)
{
    int overflow;

    if (!PyLong_CheckExact(obj))
        return 0;
    *out = PyLong_AsLongAndOverflow(obj, &overflow);
    return !overflow && *out >= 0 && *out <= hi;
}

/* True or False; 0 when it is anything else. */
static int
flag_of(PyObject *obj, int *out)
{
    if (obj != Py_True && obj != Py_False)
        return 0;
    *out = obj == Py_True;
    return 1;
}

/* A side's missile slot: None without a missile, else its kinematics. */
static int
missile_of(PyObject *obj, long status, double k[9])
{
    return status == NO_MISSILE ? obj == Py_None : floats_of(obj, k, 9);
}

/* environment._as_raw: a list or tuple of exactly 4 finite exact floats; 0
 * when it is anything else, where _as_raw converts or raises. */
static int
action_of(PyObject *a, double raw[4])
{
    PyObject **items;
    Py_ssize_t i;

    if (!(PyList_CheckExact(a) || PyTuple_CheckExact(a))
        || PySequence_Fast_GET_SIZE(a) != 4)
        return 0;
    items = PySequence_Fast_ITEMS(a);
    for (i = 0; i < 4; i++) {
        if (!PyFloat_CheckExact(items[i]))
            return 0;
        raw[i] = PyFloat_AS_DOUBLE(items[i]);
    }
    return all_finite(raw, 4);
}

/* dynamics.clamp_controls(nx=raw[1], nz=raw[0], mu=raw[2]) into the held
 * controls (nx, nz, cos mu, sin mu). */
static void
controls_of(const double raw[4], double c[4])
{
    double mu = py_min(py_max(raw[2], MU_MIN), MU_MAX);

    c[0] = py_min(py_max(raw[1], NX_MIN), NX_MAX);
    c[1] = py_min(py_max(raw[0], NZ_MIN), NZ_MAX);
    c[2] = cos(mu);
    c[3] = sin(mu);
}

/* environment.fire_allowed. */
static int
fire_allowed(const double own[6], const double tgt[6])
{
    double dx = tgt[0] - own[0], dy = tgt[1] - own[1], dz = tgt[2] - own[2];

    if (dx * dx + dy * dy + dz * dz >= FIRE_RANGE * FIRE_RANGE)
        return 0;
    return fabs(wrap_angle(py_atan2(dy, dx) - own[5])) < FIRE_BEARING;
}

/* missile.launch_missile: the shooter's position and velocity, t and both
 * commands zero. */
static void
launch(const double shooter[6], double m[9])
{
    memcpy(m, shooter, 6 * sizeof *m);
    m[6] = m[7] = m[8] = 0.0;
}

/* environment._features from own's side: inc is the incoming missile's
 * kinematics while it is in flight, else NULL. */
static int
observe(const double own[6], const double tgt[6], int own_live,
        const double *inc, double out[OBS_DIM])
{
    double dx = tgt[0] - own[0], dy = tgt[1] - own[1], dz = tgt[2] - own[2];
    double dh, d, beta, sx, sy, sz, d1, u, feats[OBS_DIM];
    int i;

    if (py_hypot(dx, dy, &dh) || py_hypot(dh, dz, &d))
        return FAIL;
    beta = py_atan2(dy, dx);
    if (inc != NULL) {
        if (py_square(inc[0] - own[0], &sx) || py_square(inc[1] - own[1], &sy)
            || py_square(inc[2] - own[2], &sz))
            return BAIL;
        d1 = sqrt(sx + sy + sz);
    }
    else {
        d1 = obs_hi[10];
    }
    feats[0] = own[5];
    feats[1] = own[4];
    feats[2] = own[3];
    feats[3] = own[2];
    feats[4] = d;
    feats[5] = own_live ? 1.0 : 0.0;
    feats[6] = wrap_angle(beta - own[5]);
    feats[7] = py_atan2(dz, dh);
    feats[8] = tgt[5];
    feats[9] = tgt[4];
    feats[10] = d1;
    feats[11] = beta;
    feats[12] = inc != NULL ? 1.0 : 0.0;
    for (i = 0; i < OBS_DIM; i++) {
        u = (feats[i] - obs_lo[i]) / obs_span[i];
        out[i] = u < 0.0 ? 0.0 : (u > 1.0 ? 1.0 : u);
    }
    return OK;
}

PyDoc_STRVAR(step_doc,
"step(flat, a_blue, a_red)\n"
"\n"
"One environment.env_step decision of DECISION_DT on a flat engagement\n"
"(b, r, bk, rk, bs, rs, blue_fired, red_fired, t, outcome): the aircraft\n"
"tuples, each missile's kinematics tuple or None, the missile status codes\n"
"(0 none, 1 in flight, 2 hit, 3 expired), the fired flags, the time and the\n"
"outcome code (0 ongoing, 1 blue win, 2 red win, 3 draw).  a_blue and a_red\n"
"are the raw actions as lists or tuples of 4 floats.\n"
"\n"
"Returns (flat, obs_blue, obs_red, outcome), the observations as tuples of\n"
"13 floats, or None wherever environment._reference would raise or meets\n"
"a value that is not a finite float: then the reference must run the\n"
"decision.");

static PyObject *
step(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    double b[6], r[6], bk[9], rk[9], ab[4], ar[4], ctrl[8], t0, t;
    double obs_b[OBS_DIM], obs_r[OBS_DIM];
    long bs, rs, outcome;
    int bf, rf, b_live, r_live, code;
    PyObject *flat, *tobj, *next, *out;
    Py_ssize_t i;

    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "step expects 3 arguments, got %zd", nargs);
        return NULL;
    }
    flat = args[0];
    if (!PyTuple_CheckExact(flat) || PyTuple_GET_SIZE(flat) != 10)
        Py_RETURN_NONE;
    tobj = PyTuple_GET_ITEM(flat, 8);
    /* A finished engagement is returned unchanged by the reference. */
    if (!floats_of(PyTuple_GET_ITEM(flat, 0), b, 6)
        || !floats_of(PyTuple_GET_ITEM(flat, 1), r, 6)
        || !code_of(PyTuple_GET_ITEM(flat, 4), EXPIRED, &bs)
        || !code_of(PyTuple_GET_ITEM(flat, 5), EXPIRED, &rs)
        || !missile_of(PyTuple_GET_ITEM(flat, 2), bs, bk)
        || !missile_of(PyTuple_GET_ITEM(flat, 3), rs, rk)
        || !flag_of(PyTuple_GET_ITEM(flat, 6), &bf)
        || !flag_of(PyTuple_GET_ITEM(flat, 7), &rf)
        || !PyFloat_CheckExact(tobj) || !isfinite(t0 = PyFloat_AS_DOUBLE(tobj))
        || !code_of(PyTuple_GET_ITEM(flat, 9), DRAW, &outcome)
        || outcome != ONGOING
        || !action_of(args[1], ab) || !action_of(args[2], ar))
        Py_RETURN_NONE;

    controls_of(ab, ctrl);
    controls_of(ar, ctrl + 4);
    if (ab[3] > 0.0 && !bf && fire_allowed(b, r)) {
        launch(b, bk);
        bs = IN_FLIGHT;
        bf = 1;
    }
    if (ar[3] > 0.0 && !rf && fire_allowed(r, b)) {
        launch(r, rk);
        rs = IN_FLIGHT;
        rf = 1;
    }
    b_live = bs == IN_FLIGHT;
    r_live = rs == IN_FLIGHT;
    code = substeps(b, r, bk, rk, &bs, &rs, bf, rf, ctrl, t0, &t, &outcome);
    if (code == FAIL)
        return NULL;
    if (code == BAIL)
        Py_RETURN_NONE;

    code = observe(b, r, bs == IN_FLIGHT, rs == IN_FLIGHT ? rk : NULL, obs_b);
    if (code == OK)
        code = observe(r, b, rs == IN_FLIGHT, bs == IN_FLIGHT ? bk : NULL,
                       obs_r);
    if (code == FAIL)
        return NULL;
    if (code == BAIL)
        Py_RETURN_NONE;

    next = PyTuple_New(10);
    if (next == NULL)
        return NULL;
    PyTuple_SET_ITEM(next, 0, tuple_of(b, 6));
    PyTuple_SET_ITEM(next, 1, tuple_of(r, 6));
    /* A missile's tuple is new only if it was in flight over the substeps. */
    PyTuple_SET_ITEM(next, 2, b_live ? tuple_of(bk, 9)
                                     : Py_NewRef(PyTuple_GET_ITEM(flat, 2)));
    PyTuple_SET_ITEM(next, 3, r_live ? tuple_of(rk, 9)
                                     : Py_NewRef(PyTuple_GET_ITEM(flat, 3)));
    PyTuple_SET_ITEM(next, 4, PyLong_FromLong(bs));
    PyTuple_SET_ITEM(next, 5, PyLong_FromLong(rs));
    PyTuple_SET_ITEM(next, 6, PyBool_FromLong(bf));
    PyTuple_SET_ITEM(next, 7, PyBool_FromLong(rf));
    PyTuple_SET_ITEM(next, 8, PyFloat_FromDouble(t));
    PyTuple_SET_ITEM(next, 9, PyLong_FromLong(outcome));
    for (i = 0; i < 10; i++) {
        if (PyTuple_GET_ITEM(next, i) == NULL) {
            Py_DECREF(next);
            return NULL;
        }
    }
    out = PyTuple_New(4);
    if (out == NULL) {
        Py_DECREF(next);
        return NULL;
    }
    PyTuple_SET_ITEM(out, 0, next);
    PyTuple_SET_ITEM(out, 1, tuple_of(obs_b, OBS_DIM));
    PyTuple_SET_ITEM(out, 2, tuple_of(obs_r, OBS_DIM));
    PyTuple_SET_ITEM(out, 3, Py_NewRef(PyTuple_GET_ITEM(next, 9)));
    if (PyTuple_GET_ITEM(out, 1) == NULL || PyTuple_GET_ITEM(out, 2) == NULL) {
        Py_DECREF(out);
        return NULL;
    }
    return out;
}

static PyMethodDef kernel_methods[] = {
    {"step", (PyCFunction)(void (*)(void))step, METH_FASTCALL, step_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "The compiled copy of environment._reference: a whole decision "
             "on a flat engagement.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    PyObject *math;
    int i;

    for (i = 0; i < OBS_DIM; i++)
        obs_span[i] = obs_hi[i] - obs_lo[i];
    math = PyImport_ImportModule("math");
    if (math == NULL)
        return NULL;
    math_hypot = PyObject_GetAttrString(math, "hypot");
    Py_DECREF(math);
    if (math_hypot == NULL)
        return NULL;
    return PyModule_Create(&kernel_module);
}
