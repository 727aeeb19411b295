/**
 * @file
 * Dense test reference for an Ansatz: its unitary and the partial
 * derivative with respect to every parameter, built from linalg's
 * embedUnitary and plain Matrix products. Deliberately independent
 * of the instantiation kernels it is used to check.
 */

#ifndef QUEST_TESTS_DENSE_ANSATZ_HH
#define QUEST_TESTS_DENSE_ANSATZ_HH

#include <vector>

#include "linalg/decompose.hh"
#include "linalg/embed.hh"
#include "linalg/matrix.hh"
#include "synth/ansatz.hh"
#include "util/logging.hh"

namespace quest {

/** The dense full-width matrix of every ansatz op, in order. U3 ops
 *  take their angles from @p params. */
inline std::vector<Matrix>
denseOps(const Ansatz &a, const std::vector<double> &params)
{
    QUEST_ASSERT(static_cast<int>(params.size()) == a.paramCount(),
                 "parameter count mismatch");
    const Matrix cx{{1, 0, 0, 0}, {0, 1, 0, 0}, {0, 0, 0, 1}, {0, 0, 1, 0}};
    const int n = a.numQubits();
    std::vector<Matrix> ops;
    size_t p = 0;
    for (const AnsatzOp &op : a.operations()) {
        if (op.isCx) {
            ops.push_back(embedUnitary(cx, {op.a, op.b}, n));
        } else {
            ops.push_back(embedUnitary(
                makeU3(params[p], params[p + 1], params[p + 2]), {op.a}, n));
            p += 3;
        }
    }
    return ops;
}

/** The ansatz unitary op_{k-1} * ... * op_0 at @p params. */
inline Matrix
denseUnitary(const Ansatz &a, const std::vector<double> &params)
{
    Matrix u = Matrix::identity(size_t{1} << a.numQubits());
    for (const Matrix &op : denseOps(a, params))
        u = op * u;
    return u;
}

/**
 * The unitary together with its partial derivative with respect to
 * every parameter: for parameter `which` of the U3 at op j,
 * suffix_j * embed(dU3/dwhich) * prefix_j.
 */
inline void
denseUnitaryAndGradient(const Ansatz &a, const std::vector<double> &params,
                        Matrix &u, std::vector<Matrix> &grads)
{
    const std::vector<Matrix> ops = denseOps(a, params);
    const size_t dim = size_t{1} << a.numQubits();
    std::vector<Matrix> prefix{Matrix::identity(dim)};
    for (const Matrix &op : ops)
        prefix.push_back(op * prefix.back());
    u = prefix.back();

    grads.assign(static_cast<size_t>(a.paramCount()), Matrix());
    Matrix suffix = Matrix::identity(dim);
    size_t p = static_cast<size_t>(a.paramCount());
    for (size_t j = ops.size(); j-- > 0;) {
        const AnsatzOp &op = a.operations()[j];
        if (!op.isCx) {
            p -= 3;
            for (int which = 0; which < 3; ++which) {
                const Matrix d = embedUnitary(
                    u3Derivative(params[p], params[p + 1], params[p + 2],
                                 which),
                    {op.a}, a.numQubits());
                grads[p + static_cast<size_t>(which)] =
                    suffix * d * prefix[j];
            }
        }
        suffix = suffix * ops[j];
    }
}

} // namespace quest

#endif // QUEST_TESTS_DENSE_ANSATZ_HH
