// Differential fuzzing of the C-expression engine: random integer expression
// trees are rendered to source text and evaluated both by the debugger's
// engine and by a host-side oracle; the results must agree bit for bit.

#include <gtest/gtest.h>

#include <string>

#include "src/dbg/kernel_introspect.h"
#include "src/support/rng.h"
#include "tests/test_util.h"

namespace dbg {
namespace {

// Generates a random expression, returning its text and the oracle value.
// All values are uint64 (the engine's unsigned 64-bit arithmetic); operators
// that could diverge from C semantics (division by zero, full-width shifts)
// are avoided or guarded the same way the engine guards them.
class ExprGen {
 public:
  explicit ExprGen(uint64_t seed) : rng_(seed) {}

  struct Node {
    std::string text;
    uint64_t value;
  };

  Node Gen(int depth) {
    if (depth <= 0 || rng_.NextChance(1, 4)) {
      return Leaf();
    }
    switch (rng_.NextBelow(12)) {
      case 0:
        return Binary(depth, "+", [](uint64_t a, uint64_t b) { return a + b; });
      case 1:
        return Binary(depth, "-", [](uint64_t a, uint64_t b) { return a - b; });
      case 2:
        return Binary(depth, "*", [](uint64_t a, uint64_t b) { return a * b; });
      case 3:
        return Binary(depth, "&", [](uint64_t a, uint64_t b) { return a & b; });
      case 4:
        return Binary(depth, "|", [](uint64_t a, uint64_t b) { return a | b; });
      case 5:
        return Binary(depth, "^", [](uint64_t a, uint64_t b) { return a ^ b; });
      case 6:
        return Binary(depth, "==", [](uint64_t a, uint64_t b) { return uint64_t{a == b}; });
      case 7:
        return Binary(depth, "<", [](uint64_t a, uint64_t b) { return uint64_t{a < b}; });
      case 8: {  // shift with the engine's 63-mask semantics
        Node lhs = Gen(depth - 1);
        uint64_t amount = rng_.NextBelow(64);
        return Node{"(" + lhs.text + " << " + std::to_string(amount) + ")",
                    lhs.value << amount};
      }
      case 9: {  // guarded division
        Node lhs = Gen(depth - 1);
        uint64_t divisor = rng_.NextInRange(1, 1000);
        return Node{"(" + lhs.text + " / " + std::to_string(divisor) + ")",
                    lhs.value / divisor};
      }
      case 10: {  // ternary
        Node cond = Gen(depth - 1);
        Node then_n = Gen(depth - 1);
        Node else_n = Gen(depth - 1);
        return Node{"(" + cond.text + " ? " + then_n.text + " : " + else_n.text + ")",
                    cond.value != 0 ? then_n.value : else_n.value};
      }
      default: {  // unary ~ over a literal (comparison results are int-typed
                  // in C, so ~cmp would pit signed engine semantics against
                  // this unsigned oracle)
        Node operand = Leaf();
        return Node{"(~" + operand.text + ")", ~operand.value};
      }
    }
  }

 private:
  Node Leaf() {
    uint64_t value;
    switch (rng_.NextBelow(4)) {
      case 0:
        value = rng_.NextBelow(10);
        break;
      case 1:
        value = rng_.NextBelow(1ull << 16);
        break;
      case 2:
        value = rng_.Next();  // full-width
        break;
      default:
        value = rng_.NextChance(1, 2) ? 0 : 1;
    }
    // Mix decimal and hex spellings.
    if (rng_.NextChance(1, 2)) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx", static_cast<unsigned long long>(value));
      return Node{buf, value};
    }
    return Node{std::to_string(value), value};
  }

  template <typename Fn>
  Node Binary(int depth, const char* op, Fn fn) {
    Node lhs = Gen(depth - 1);
    Node rhs = Gen(depth - 1);
    return Node{"(" + lhs.text + " " + op + " " + rhs.text + ")", fn(lhs.value, rhs.value)};
  }

  vl::Rng rng_;
};

class ExprFuzzTest : public vltest::KernelTest {
 protected:
  void SetUp() override {
    vltest::KernelTest::SetUp();
    debugger_ = std::make_unique<KernelDebugger>(kernel_.get());
  }

  std::unique_ptr<KernelDebugger> debugger_;
};

TEST_F(ExprFuzzTest, RandomExpressionsMatchOracle) {
  ExprGen gen(0xfeedface);
  for (int i = 0; i < 2000; ++i) {
    ExprGen::Node node = gen.Gen(5);
    auto result = debugger_->Eval(node.text);
    ASSERT_TRUE(result.ok()) << node.text << ": " << result.status().ToString();
    auto loaded = result->Load(&debugger_->session());
    ASSERT_TRUE(loaded.ok()) << node.text;
    EXPECT_EQ(loaded->bits(), node.value) << node.text;
  }
}

// One compiled handle is evaluated many times: every evaluation must agree
// with the oracle, so nothing in the handle drifts between evaluations.
TEST_F(ExprFuzzTest, CompiledHandleMatchesOracleOnEveryEvaluation) {
  ExprGen gen(0xc0ffee);
  for (int i = 0; i < 300; ++i) {
    ExprGen::Node node = gen.Gen(5);
    std::shared_ptr<const CExpr> compiled = CompileCExpression(node.text);
    ASSERT_TRUE(compiled->status().ok()) << node.text;
    for (int round = 0; round < 4; ++round) {
      auto result = compiled->Eval(&debugger_->context(), nullptr);
      ASSERT_TRUE(result.ok()) << node.text << ": " << result.status().ToString();
      auto loaded = result->Load(&debugger_->session());
      ASSERT_TRUE(loaded.ok()) << node.text;
      EXPECT_EQ(loaded->bits(), node.value) << node.text << " (evaluation " << round << ")";
    }
  }
}

// A handle whose text does not parse reports the parse error, in the
// one-shot engine's wording, on every evaluation.
TEST_F(ExprFuzzTest, CompiledHandleKeepsItsParseError) {
  std::shared_ptr<const CExpr> compiled = CompileCExpression("1 + / 2");
  ASSERT_FALSE(compiled->status().ok());
  for (int round = 0; round < 2; ++round) {
    auto result = compiled->Eval(&debugger_->context(), nullptr);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().ToString(),
              "PARSE_ERROR: expected an expression (near position 4) in '1 + / 2'");
  }
  EXPECT_EQ(debugger_->Eval("1 + / 2").status().ToString(),
            compiled->Eval(&debugger_->context(), nullptr).status().ToString());
}

TEST_F(ExprFuzzTest, DeepNestingParses) {
  // 64 levels of parenthesized addition.
  std::string expr = "1";
  for (int i = 0; i < 64; ++i) {
    expr = "(" + expr + " + 1)";
  }
  auto result = debugger_->Eval(expr);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->bits(), 65u);
}

TEST_F(ExprFuzzTest, GarbageNeverCrashes) {
  vl::Rng rng(31337);
  const std::string alphabet = "abc01(){}[]<>.,+-*/&|!~?:@$ \"'%^=";
  for (int i = 0; i < 3000; ++i) {
    std::string garbage;
    size_t len = rng.NextInRange(1, 40);
    for (size_t j = 0; j < len; ++j) {
      garbage += alphabet[rng.NextBelow(alphabet.size())];
    }
    // Must return a Status (ok or error), never crash or hang.
    auto result = debugger_->Eval(garbage);
    (void)result;
  }
  SUCCEED();
}

}  // namespace
}  // namespace dbg
