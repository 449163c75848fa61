#include "xbs/hwmodel/cell_library.hpp"

#include <array>

namespace xbs::hwmodel {
namespace {

// Paper Table 1 (65 nm, Synopsys Design Compiler): area [um^2], delay [ns],
// power [uW], energy [fJ].
constexpr std::array<Cost, 6> kAdderCosts = {{
    {10.08, 0.18, 2.27, 0.409},  // Accurate
    {8.28, 0.11, 1.34, 0.147},   // ApproxAdd1
    {3.96, 0.08, 0.61, 0.049},   // ApproxAdd2
    {3.60, 0.06, 0.41, 0.025},   // ApproxAdd3
    {3.24, 0.06, 0.33, 0.020},   // ApproxAdd4
    {0.00, 0.00, 0.00, 0.000},   // ApproxAdd5 (wiring only)
}};

constexpr std::array<Cost, 3> kMultCosts = {{
    {14.40, 0.16, 1.80, 0.288},  // Accurate 2x2
    {11.52, 0.13, 1.67, 0.167},  // AppMultV1
    {9.72, 0.06, 1.37, 0.137},   // AppMultV2
}};

}  // namespace

Cost cell_cost(AdderKind kind) noexcept { return kAdderCosts[static_cast<std::size_t>(kind)]; }

Cost cell_cost(MultKind kind) noexcept { return kMultCosts[static_cast<std::size_t>(kind)]; }

}  // namespace xbs::hwmodel
