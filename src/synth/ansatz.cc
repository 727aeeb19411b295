#include "synth/ansatz.hh"

#include <algorithm>
#include <cmath>

#include "util/logging.hh"

namespace quest {

Matrix
u3Derivative(double theta, double phi, double lambda, int which)
{
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    const Complex eip = std::polar(1.0, phi);
    const Complex eil = std::polar(1.0, lambda);
    const Complex i(0.0, 1.0);

    Matrix d(2, 2);
    switch (which) {
      case 0:  // d/d theta
        d(0, 0) = Complex(-s / 2.0, 0.0);
        d(0, 1) = -eil * (c / 2.0);
        d(1, 0) = eip * (c / 2.0);
        d(1, 1) = eip * eil * (-s / 2.0);
        break;
      case 1:  // d/d phi
        d(1, 0) = i * eip * s;
        d(1, 1) = i * eip * eil * c;
        break;
      case 2:  // d/d lambda
        d(0, 1) = -i * eil * s;
        d(1, 1) = i * eip * eil * c;
        break;
      default:
        QUEST_PANIC("bad U3 parameter index");
    }
    return d;
}

void
u3WithDerivatives(double theta, double phi, double lambda, Complex g[4],
                  Complex dg[3][4])
{
    // This runs once per U3 op per lane per cost evaluation and the
    // three argument reductions dominate it, so fuse each sin/cos
    // pair into one sincos where libm provides it. glibc's sincos
    // evaluates the same kernels as sin and cos, so the values are
    // those of separate sin and cos calls.
#if defined(__GLIBC__) && defined(_GNU_SOURCE)
    double c, s, cl, sl, cp, sp;
    ::sincos(theta / 2.0, &s, &c);
    ::sincos(lambda, &sl, &cl);
    ::sincos(phi, &sp, &cp);
    const Complex eil(cl, sl);
    const Complex eip(cp, sp);
#else
    const double c = std::cos(theta / 2.0);
    const double s = std::sin(theta / 2.0);
    const Complex eil = std::polar(1.0, lambda);
    const Complex eip = std::polar(1.0, phi);
#endif
    const Complex eipl = eip * eil;
    const Complex i(0.0, 1.0);
    const Complex zero(0.0, 0.0);

    g[0] = Complex(c, 0.0);
    g[1] = -eil * s;
    g[2] = eip * s;
    g[3] = eipl * c;

    // d/d theta
    dg[0][0] = Complex(-s / 2.0, 0.0);
    dg[0][1] = -eil * (c / 2.0);
    dg[0][2] = eip * (c / 2.0);
    dg[0][3] = eipl * (-s / 2.0);
    // d/d phi
    dg[1][0] = zero;
    dg[1][1] = zero;
    dg[1][2] = i * eip * s;
    dg[1][3] = i * eipl * c;
    // d/d lambda
    dg[2][0] = zero;
    dg[2][1] = -i * eil * s;
    dg[2][2] = zero;
    dg[2][3] = i * eipl * c;
}

Ansatz::Ansatz(int n_qubits)
    : nQubits(n_qubits)
{
    QUEST_ASSERT(n_qubits >= 1 && n_qubits <= 6,
                 "ansatz width out of range: ", n_qubits);
}

Ansatz
Ansatz::initialLayer(int n_qubits)
{
    Ansatz a(n_qubits);
    for (int q = 0; q < n_qubits; ++q)
        a.addU3(q);
    return a;
}

void
Ansatz::addU3(int q)
{
    QUEST_ASSERT(q >= 0 && q < nQubits, "U3 wire out of range");
    ops.push_back({false, q, -1});
    ++u3Count;
}

void
Ansatz::addCx(int control, int target)
{
    QUEST_ASSERT(control >= 0 && control < nQubits && target >= 0 &&
                 target < nQubits && control != target,
                 "bad CX wires");
    ops.push_back({true, control, target});
    ++cxCount;
}

void
Ansatz::addLayer(int a, int b)
{
    addCx(a, b);
    addU3(a);
    addU3(b);
}

bool
Ansatz::endsInLayer() const
{
    const size_t k = ops.size();
    if (k < 3)
        return false;
    const Op &cx = ops[k - 3];
    return cx.isCx && ops[k - 2] == Op{false, cx.a, -1} &&
           ops[k - 1] == Op{false, cx.b, -1};
}

bool
Ansatz::isSiblingOf(const Ansatz &other) const
{
    return nQubits == other.nQubits && ops.size() == other.ops.size() &&
           endsInLayer() && other.endsInLayer() &&
           std::equal(ops.begin(), ops.end() - 3, other.ops.begin());
}

Circuit
Ansatz::instantiate(const std::vector<double> &params) const
{
    QUEST_ASSERT(static_cast<int>(params.size()) == paramCount(),
                 "parameter count mismatch");
    Circuit c(nQubits);
    size_t p = 0;
    for (const Op &op : ops) {
        if (op.isCx) {
            c.append(Gate::cx(op.a, op.b));
        } else {
            c.append(Gate::u3(op.a, params[p], params[p + 1],
                              params[p + 2]));
            p += 3;
        }
    }
    return c;
}

} // namespace quest
