/**
 * @file
 * Parameterized circuit templates for numerical synthesis.
 *
 * A synthesis layer is a CNOT followed by U3 gates on both wires
 * (Fig. 5 of the paper); an ansatz is a fixed gate structure whose U3
 * angles are free parameters optimized by the instantiater.
 */

#ifndef QUEST_SYNTH_ANSATZ_HH
#define QUEST_SYNTH_ANSATZ_HH

#include <vector>

#include "ir/circuit.hh"
#include "linalg/matrix.hh"

namespace quest {

/**
 * Partial derivative of the U3 matrix with respect to parameter
 * @p which (0 theta, 1 phi, 2 lambda).
 */
Matrix u3Derivative(double theta, double phi, double lambda, int which);

/**
 * The U3 entries together with all three parameter derivatives
 * (row-major 2x2 each), sharing a single cos/sin/polar evaluation —
 * the allocation-free counterpart of makeU3 plus three u3Derivative
 * used by the cost function.
 */
void u3WithDerivatives(double theta, double phi, double lambda,
                       Complex g[4], Complex dg[3][4]);

/** One ansatz operation: a parameterized U3 or a fixed CX. */
struct AnsatzOp
{
    bool isCx;
    int a;  //!< U3 wire, or CX control
    int b;  //!< CX target (unused for U3)

    bool operator==(const AnsatzOp &) const = default;
};

/**
 * A fixed structure of CX gates and parameterized U3 gates over a
 * small number of qubits. The cost function (synth/batch/
 * batched_hs_cost.hh) evaluates its unitary and analytic parameter
 * gradient from the op sequence.
 */
class Ansatz
{
  public:
    /** An empty ansatz over @p n_qubits wires (at most 6). */
    explicit Ansatz(int n_qubits);

    /** The initial structure: one U3 on every wire. */
    static Ansatz initialLayer(int n_qubits);

    int numQubits() const { return nQubits; }

    /** Free parameter count (three per U3). */
    int paramCount() const { return 3 * u3Count; }

    /** Number of CX gates in the structure. */
    int cnotCount() const { return cxCount; }

    /** Append a parameterized U3 on wire q. */
    void addU3(int q);

    /** Append a fixed CX. */
    void addCx(int control, int target);

    /**
     * Append a synthesis layer: CX(a, b) followed by U3 on a and on
     * b (the Leap compiler's expansion step).
     */
    void addLayer(int a, int b);

    /**
     * True when this and @p other differ at most in their final layer
     * (addLayer): both end in a layer, over the same wires, after the
     * same op sequence. The successors of one LEAP frontier node are
     * siblings, so one lane-lockstep instantiation can run them all.
     */
    bool isSiblingOf(const Ansatz &other) const;

    /** Materialize a concrete circuit from parameter values. */
    Circuit instantiate(const std::vector<double> &params) const;

    /** The op sequence (for the fast cost-function path). */
    const std::vector<AnsatzOp> &operations() const { return ops; }

    /** Basis-index bit of wire q (qubit 0 is the most significant). */
    size_t
    wireBit(int q) const
    {
        return size_t{1} << (nQubits - 1 - q);
    }

  private:
    using Op = AnsatzOp;

    /** The op sequence ends in an addLayer() triple. */
    bool endsInLayer() const;

    int nQubits;
    int u3Count = 0;
    int cxCount = 0;
    std::vector<Op> ops;
};

} // namespace quest

#endif // QUEST_SYNTH_ANSATZ_HH
