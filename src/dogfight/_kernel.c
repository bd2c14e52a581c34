/* The compiled copy of environment._reference and of mcts.run_search's
 * tree walk.
 *
 * `step` is a whole decision on a flat engagement, the tuple that matches
 * pass to environment.env_step, its one caller (see
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
 * `search` is run_search's walk: the tree's visit counts, value sums,
 * priors, actions, child links and engagements are C values, each child is
 * stepped by `decide`, the body of `step`, and PUCT and backup keep the
 * Python walk's operation order.  It calls Python back for the networks
 * and the search rng only, where the Python walk does that work and in its
 * order.  Wherever a child step would hand back or a value or score is not
 * finite, it returns None and run_search runs its Python walk instead.
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

/* A flat engagement as C values.  A side's missile kinematics are read only
 * while its status is not NO_MISSILE. */
typedef struct {
    double b[6], r[6], bk[9], rk[9], t;
    long bs, rs, outcome;
    int bf, rf;
} engagement;

/* Unpack a flat engagement tuple into e; 0 when it is anything else. */
static int
engagement_of(PyObject *flat, engagement *e)
{
    PyObject *tobj;

    if (!PyTuple_CheckExact(flat) || PyTuple_GET_SIZE(flat) != 10)
        return 0;
    tobj = PyTuple_GET_ITEM(flat, 8);
    return floats_of(PyTuple_GET_ITEM(flat, 0), e->b, 6)
           && floats_of(PyTuple_GET_ITEM(flat, 1), e->r, 6)
           && code_of(PyTuple_GET_ITEM(flat, 4), EXPIRED, &e->bs)
           && code_of(PyTuple_GET_ITEM(flat, 5), EXPIRED, &e->rs)
           && missile_of(PyTuple_GET_ITEM(flat, 2), e->bs, e->bk)
           && missile_of(PyTuple_GET_ITEM(flat, 3), e->rs, e->rk)
           && flag_of(PyTuple_GET_ITEM(flat, 6), &e->bf)
           && flag_of(PyTuple_GET_ITEM(flat, 7), &e->rf)
           && PyFloat_CheckExact(tobj)
           && isfinite(e->t = PyFloat_AS_DOUBLE(tobj))
           && code_of(PyTuple_GET_ITEM(flat, 9), DRAW, &e->outcome);
}

/* One decision on the ongoing engagement e, in place, under the raw actions
 * ab and ar: the clamp, the fire gate and launch, the substeps and both
 * observations.  live[0] and live[1] say whether blue's and red's missile
 * flew over the substeps.  BAIL where the reference must run the decision. */
static int
decide(engagement *e, const double ab[4], const double ar[4], int live[2],
       double obs_b[OBS_DIM], double obs_r[OBS_DIM])
{
    double ctrl[8];
    int code;

    controls_of(ab, ctrl);
    controls_of(ar, ctrl + 4);
    if (ab[3] > 0.0 && !e->bf && fire_allowed(e->b, e->r)) {
        launch(e->b, e->bk);
        e->bs = IN_FLIGHT;
        e->bf = 1;
    }
    if (ar[3] > 0.0 && !e->rf && fire_allowed(e->r, e->b)) {
        launch(e->r, e->rk);
        e->rs = IN_FLIGHT;
        e->rf = 1;
    }
    live[0] = e->bs == IN_FLIGHT;
    live[1] = e->rs == IN_FLIGHT;
    code = substeps(e->b, e->r, e->bk, e->rk, &e->bs, &e->rs, e->bf, e->rf,
                    ctrl, e->t, &e->t, &e->outcome);
    if (code != OK)
        return code;
    code = observe(e->b, e->r, e->bs == IN_FLIGHT,
                   e->rs == IN_FLIGHT ? e->rk : NULL, obs_b);
    if (code != OK)
        return code;
    return observe(e->r, e->b, e->rs == IN_FLIGHT,
                   e->bs == IN_FLIGHT ? e->bk : NULL, obs_r);
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
    engagement e;
    double ab[4], ar[4], obs_b[OBS_DIM], obs_r[OBS_DIM];
    int live[2], code;
    PyObject *flat, *next, *out;
    Py_ssize_t i;

    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError, "step expects 3 arguments, got %zd", nargs);
        return NULL;
    }
    flat = args[0];
    /* A finished engagement is returned unchanged by the reference. */
    if (!engagement_of(flat, &e) || e.outcome != ONGOING
        || !action_of(args[1], ab) || !action_of(args[2], ar))
        Py_RETURN_NONE;

    code = decide(&e, ab, ar, live, obs_b, obs_r);
    if (code == FAIL)
        return NULL;
    if (code == BAIL)
        Py_RETURN_NONE;

    next = PyTuple_New(10);
    if (next == NULL)
        return NULL;
    PyTuple_SET_ITEM(next, 0, tuple_of(e.b, 6));
    PyTuple_SET_ITEM(next, 1, tuple_of(e.r, 6));
    /* A missile's tuple is new only if it was in flight over the substeps. */
    PyTuple_SET_ITEM(next, 2, live[0] ? tuple_of(e.bk, 9)
                                      : Py_NewRef(PyTuple_GET_ITEM(flat, 2)));
    PyTuple_SET_ITEM(next, 3, live[1] ? tuple_of(e.rk, 9)
                                      : Py_NewRef(PyTuple_GET_ITEM(flat, 3)));
    PyTuple_SET_ITEM(next, 4, PyLong_FromLong(e.bs));
    PyTuple_SET_ITEM(next, 5, PyLong_FromLong(e.rs));
    PyTuple_SET_ITEM(next, 6, PyBool_FromLong(e.bf));
    PyTuple_SET_ITEM(next, 7, PyBool_FromLong(e.rf));
    PyTuple_SET_ITEM(next, 8, PyFloat_FromDouble(e.t));
    PyTuple_SET_ITEM(next, 9, PyLong_FromLong(e.outcome));
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

/* The search tree of mcts.run_search.  A node holds its engagement and its
 * (own, opponent) observations; once expanded, the handle that expand
 * returned; once built, the opponent's reply and its k edges. */
typedef struct {
    engagement e;
    double own[OBS_DIM], opp[OBS_DIM], reply[4];
    double value;           /* the critic's output, once evaluated */
    double terminal_value;  /* the outcome's reward to the searching side */
    Py_ssize_t depth;
    int terminal, evaluated, built;
    PyObject *handle;
} node;

/* An edge: the candidate's action and prior, its visit count and value sum,
 * and the index of the node it leads to, or -1 before it is stepped. */
typedef struct {
    double a[4], p, w;
    long n;
    Py_ssize_t child;
} edge;

typedef struct {
    node *nodes;
    edge *edges;        /* k per node, node i's from i * k */
    Py_ssize_t *path;   /* the edges a simulation descends */
    double *scratch;    /* a build's actions and priors, 5 * k doubles */
    Py_ssize_t len, cap, k;
    PyObject *root_obs[2];  /* borrowed */
    PyObject *root_built;   /* build's result at the root */
} tree;

static void
free_tree(tree *t)
{
    Py_ssize_t i;

    for (i = 0; i < t->len; i++)
        Py_XDECREF(t->nodes[i].handle);
    Py_XDECREF(t->root_built);
    PyMem_Free(t->nodes);
    PyMem_Free(t->edges);
    PyMem_Free(t->path);
    PyMem_Free(t->scratch);
}

/* Make room for cap nodes; FAIL with MemoryError set where there is none. */
static int
reserve(tree *t, Py_ssize_t cap)
{
    void *p;

    if (cap > PY_SSIZE_T_MAX / t->k / (Py_ssize_t)sizeof(edge))
        goto nomem;
    if ((p = PyMem_Realloc(t->nodes, cap * sizeof(node))) == NULL)
        goto nomem;
    t->nodes = p;
    if ((p = PyMem_Realloc(t->edges, cap * t->k * sizeof(edge))) == NULL)
        goto nomem;
    t->edges = p;
    if ((p = PyMem_Realloc(t->path, cap * sizeof(Py_ssize_t))) == NULL)
        goto nomem;
    t->path = p;
    t->cap = cap;
    return OK;
nomem:
    PyErr_NoMemory();
    return FAIL;
}

/* A fresh node's index; -1 with MemoryError set where the tree cannot grow. */
static Py_ssize_t
add_node(tree *t)
{
    node *nd;

    if (t->len == t->cap && reserve(t, 2 * t->cap) != OK)
        return -1;
    nd = &t->nodes[t->len];
    nd->terminal = nd->evaluated = nd->built = 0;
    nd->handle = NULL;
    return t->len++;
}

/* Node i's own (which 0) or opponent's (1) observation: the root's as the
 * caller gave it, any other's as a new tuple. */
static PyObject *
observation(tree *t, Py_ssize_t i, int which)
{
    if (i == 0)
        return Py_NewRef(t->root_obs[which]);
    return tuple_of(which ? t->nodes[i].opp : t->nodes[i].own, OBS_DIM);
}

/* Keep the critic's output out as node i's and set *value to it clamped
 * as mcts._evaluate_state clamps it; BAIL where out is not finite. */
static int
keep_value(tree *t, Py_ssize_t i, PyObject *out, double *value)
{
    double v;

    if (!PyFloat_CheckExact(out)) {
        PyErr_SetString(PyExc_TypeError, "the critic's value must be a float");
        return FAIL;
    }
    v = PyFloat_AS_DOUBLE(out);
    if (!isfinite(v))
        return BAIL;
    t->nodes[i].value = v;
    t->nodes[i].evaluated = 1;
    *value = py_min(py_max(v, -1.0), 1.0);
    return OK;
}

/* mcts.expand_node through expand(own) -> (critic output, handle). */
static int
expand_node(tree *t, Py_ssize_t i, PyObject *expand, double *value)
{
    PyObject *own = observation(t, i, 0), *res;
    int code;

    if (own == NULL)
        return FAIL;
    res = PyObject_CallOneArg(expand, own);
    Py_DECREF(own);
    if (res == NULL)
        return FAIL;
    if (!PyTuple_CheckExact(res) || PyTuple_GET_SIZE(res) != 2) {
        Py_DECREF(res);
        PyErr_SetString(PyExc_TypeError, "expand must return (value, handle)");
        return FAIL;
    }
    code = keep_value(t, i, PyTuple_GET_ITEM(res, 0), value);
    if (code == OK)
        t->nodes[i].handle = Py_NewRef(PyTuple_GET_ITEM(res, 1));
    Py_DECREF(res);
    return code;
}

/* mcts._evaluate_state at the depth cap, through evaluate(own) -> critic
 * output, called once per node. */
static int
evaluate_node(tree *t, Py_ssize_t i, PyObject *evaluate, double *value)
{
    PyObject *own, *res;
    int code;

    if (t->nodes[i].evaluated) {
        *value = py_min(py_max(t->nodes[i].value, -1.0), 1.0);
        return OK;
    }
    if ((own = observation(t, i, 0)) == NULL)
        return FAIL;
    res = PyObject_CallOneArg(evaluate, own);
    Py_DECREF(own);
    if (res == NULL)
        return FAIL;
    code = keep_value(t, i, res, value);
    Py_DECREF(res);
    return code;
}

/* Copy a C-contiguous buffer of exactly n doubles (a float64 numpy array)
 * into out; 0 when obj is anything else. */
static int
copy_doubles(PyObject *obj, double *out, Py_ssize_t n)
{
    Py_buffer view;
    int ok;

    if (PyObject_GetBuffer(obj, &view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0) {
        PyErr_Clear();
        return 0;
    }
    ok = view.len == n * (Py_ssize_t)sizeof(double)
         && strcmp(view.format, "d") == 0;
    if (ok)
        memcpy(out, view.buf, view.len);
    PyBuffer_Release(&view);
    return ok;
}

/* mcts.build_candidates through build(handle, opp) -> (actions, priors,
 * mean, reply): node i's k edges and the opponent's reply.  BAIL where an
 * array is not of float64 and of its shape. */
static int
build_node(tree *t, Py_ssize_t i, PyObject *build)
{
    node *nd = &t->nodes[i];
    edge *ed = t->edges + i * t->k;
    double *a = t->scratch, *p = t->scratch + 4 * t->k;
    PyObject *opp, *res;
    Py_ssize_t j;
    int code = OK;

    if ((opp = observation(t, i, 1)) == NULL)
        return FAIL;
    res = PyObject_CallFunctionObjArgs(build, nd->handle, opp, NULL);
    Py_DECREF(opp);
    if (res == NULL)
        return FAIL;
    if (!PyTuple_CheckExact(res) || PyTuple_GET_SIZE(res) != 4) {
        Py_DECREF(res);
        PyErr_SetString(PyExc_TypeError,
                        "build must return (actions, priors, mean, reply)");
        return FAIL;
    }
    if (!copy_doubles(PyTuple_GET_ITEM(res, 0), a, 4 * t->k)
        || !copy_doubles(PyTuple_GET_ITEM(res, 1), p, t->k)
        || !copy_doubles(PyTuple_GET_ITEM(res, 3), nd->reply, 4))
        code = BAIL;
    else {
        for (j = 0; j < t->k; j++) {
            memcpy(ed[j].a, a + 4 * j, sizeof ed[j].a);
            ed[j].p = p[j];
            ed[j].w = 0.0;
            ed[j].n = 0;
            ed[j].child = -1;
        }
        nd->built = 1;
        if (i == 0)
            t->root_built = Py_NewRef(res);
    }
    Py_DECREF(res);
    return code;
}

/* mcts.puct_select over k edges, in its operation order; ties go to the
 * lowest index.  -1 where a score is not finite. */
static Py_ssize_t
puct_select(const edge *ed, Py_ssize_t k, double c_puct)
{
    Py_ssize_t j, best = -1;
    long total = 0;
    double root_n, q, score, best_score = 0.0;

    for (j = 0; j < k; j++)
        total += ed[j].n;
    root_n = sqrt((double)total + 1.0);
    for (j = 0; j < k; j++) {
        q = ed[j].n ? ed[j].w / (double)ed[j].n : 0.0;
        score = q + c_puct * ed[j].p * root_n / (1.0 + (double)ed[j].n);
        if (!isfinite(score))
            return -1;
        if (best < 0 || score > best_score) {
            best = j;
            best_score = score;
        }
    }
    return best;
}

/* mcts._make_child: step node i's engagement under edge j's action and the
 * opponent's reply into a new node, its observations seen from the
 * searching side. */
static int
step_child(tree *t, Py_ssize_t i, Py_ssize_t j, int red)
{
    Py_ssize_t c = add_node(t);
    node *parent, *child;
    edge *ed;
    int live[2], code;

    if (c < 0)
        return FAIL;
    parent = &t->nodes[i];
    child = &t->nodes[c];
    ed = &t->edges[i * t->k + j];
    if (!all_finite(ed->a, 4) || !all_finite(parent->reply, 4))
        return BAIL;
    child->e = parent->e;
    child->depth = parent->depth + 1;
    code = red ? decide(&child->e, parent->reply, ed->a, live, child->opp,
                        child->own)
               : decide(&child->e, ed->a, parent->reply, live, child->own,
                        child->opp);
    if (code != OK)
        return code;
    if (child->e.outcome != ONGOING) {
        child->terminal = 1;
        child->terminal_value = child->e.outcome == DRAW ? 0.0
            : child->e.outcome == (red ? RED_WIN : BLUE_WIN) ? 1.0 : -1.0;
    }
    ed->child = c;
    return OK;
}

PyDoc_STRVAR(search_doc,
"search(flat, red, own, opp, k, simulations, c_puct, max_depth, expand,\n"
"       evaluate, build)\n"
"\n"
"mcts.run_search's tree walk from the flat engagement flat, for red's side\n"
"when red is true, else blue's; own and opp are the root's observations.\n"
"Each node's children are stepped here, as `step` steps; Python is called\n"
"only for the numpy work, in the walk's order: expand(own) -> (critic\n"
"output, handle) when a node is expanded, evaluate(own) -> critic output\n"
"at the depth cap, build(handle, opp) -> (actions, priors, mean, reply)\n"
"arrays on the first descent through a node.\n"
"\n"
"Returns (root visit counts, root critic output, root build result), or\n"
"None wherever a child step would hand back, a critic output or a score\n"
"is not finite, or an array is not of float64 and of its shape: then\n"
"run_search's Python walk must run the search.  An exception raised by a\n"
"callback propagates.");

static PyObject *
search(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    tree t = {0};
    PyObject *expand, *evaluate, *build, *visits, *out = NULL;
    Py_ssize_t sims, max_depth, s, i, j, len;
    double c_puct, value = 0.0;
    int red, code;
    edge *ed;

    if (nargs != 11) {
        PyErr_Format(PyExc_TypeError, "search expects 11 arguments, got %zd",
                     nargs);
        return NULL;
    }
    if ((red = PyObject_IsTrue(args[1])) < 0
        || ((t.k = PyLong_AsSsize_t(args[4])) == -1 && PyErr_Occurred())
        || ((sims = PyLong_AsSsize_t(args[5])) == -1 && PyErr_Occurred())
        || ((c_puct = PyFloat_AsDouble(args[6])) == -1.0 && PyErr_Occurred())
        || ((max_depth = PyLong_AsSsize_t(args[7])) == -1 && PyErr_Occurred()))
        return NULL;
    if (t.k < 1 || sims < 1 || max_depth < 1) {
        PyErr_SetString(PyExc_ValueError,
                        "k, simulations and max_depth must be >= 1");
        return NULL;
    }
    t.root_obs[0] = args[2];
    t.root_obs[1] = args[3];
    expand = args[8];
    evaluate = args[9];
    build = args[10];
    if (t.k > PY_SSIZE_T_MAX / 5 / (Py_ssize_t)sizeof(double)
        || (t.scratch = PyMem_Malloc(5 * t.k * sizeof(double))) == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    /* A simulation adds at most one node. */
    if (reserve(&t, sims < 64 ? sims + 1 : 64) != OK || add_node(&t) < 0) {
        code = FAIL;
        goto done;
    }
    t.nodes[0].depth = 0;
    if (!engagement_of(args[0], &t.nodes[0].e)
        || t.nodes[0].e.outcome != ONGOING) {
        code = BAIL;
        goto done;
    }
    if ((code = expand_node(&t, 0, expand, &value)) != OK)
        goto done;

    for (s = 0; s < sims; s++) {
        i = 0;
        len = 0;
        for (;;) {
            if (t.nodes[i].terminal) {
                value = t.nodes[i].terminal_value;
                break;
            }
            if (t.nodes[i].depth >= max_depth) {
                code = evaluate_node(&t, i, evaluate, &value);
                break;
            }
            if (t.nodes[i].handle == NULL) {
                code = expand_node(&t, i, expand, &value);
                break;
            }
            if (!t.nodes[i].built && (code = build_node(&t, i, build)) != OK)
                break;
            j = puct_select(t.edges + i * t.k, t.k, c_puct);
            if (j < 0) {
                code = BAIL;
                break;
            }
            if (t.edges[i * t.k + j].child < 0
                && (code = step_child(&t, i, j, red)) != OK)
                break;
            t.path[len++] = i * t.k + j;
            i = t.edges[i * t.k + j].child;
        }
        if (code != OK)
            goto done;
        /* mcts.backup: one addition per edge on the path. */
        while (len > 0) {
            ed = &t.edges[t.path[--len]];
            ed->n += 1;
            ed->w += value;
        }
    }

    if ((visits = PyList_New(t.k)) == NULL) {
        code = FAIL;
        goto done;
    }
    for (j = 0; j < t.k; j++) {
        PyObject *n = PyLong_FromLong(t.edges[j].n);
        if (n == NULL) {
            Py_DECREF(visits);
            code = FAIL;
            goto done;
        }
        PyList_SET_ITEM(visits, j, n);
    }
    out = Py_BuildValue("(NdO)", visits, t.nodes[0].value, t.root_built);
done:
    free_tree(&t);
    if (code == BAIL)
        Py_RETURN_NONE;
    return out;
}

static PyMethodDef kernel_methods[] = {
    {"step", (PyCFunction)(void (*)(void))step, METH_FASTCALL, step_doc},
    {"search", (PyCFunction)(void (*)(void))search, METH_FASTCALL, search_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "The compiled copy of environment._reference, a whole decision "
             "on a flat engagement, and of mcts.run_search's tree walk.",
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
