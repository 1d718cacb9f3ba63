#!/usr/bin/env python3
"""Self-tests for tools/genlink_lint.py (plain stdlib unittest: the
build container and CI both have python3 but not pytest).

Each test writes a small C++ snippet into a temp tree laid out like the
real repo (src/<dir>/<file>) and asserts on the diagnostics the linter
returns. Registered with ctest under the `lint` label.
"""

import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import genlink_lint  # noqa: E402


class LintHarness(unittest.TestCase):
    def setUp(self):
        self._tmp = tempfile.TemporaryDirectory()
        self.root = self._tmp.name
        self._old_cwd = os.getcwd()
        os.chdir(self.root)

    def tearDown(self):
        os.chdir(self._old_cwd)
        self._tmp.cleanup()

    def write(self, rel_path, text):
        full = os.path.join(self.root, rel_path)
        os.makedirs(os.path.dirname(full), exist_ok=True)
        with open(full, "w") as f:
            f.write(text)
        return full

    def lint(self, rel_path, text):
        full = self.write(rel_path, text)
        result = genlink_lint.LintResult()
        genlink_lint.lint_file(full, rel_path, result)
        return result

    def rules(self, result):
        return [d.rule for d in result.diagnostics]


class RandomnessRuleTest(LintHarness):
    def test_flags_rand_and_random_device(self):
        r = self.lint("src/gp/x.cc", """\
int a = rand();
std::random_device rd;
""")
        self.assertEqual(self.rules(r), ["randomness", "randomness"])

    def test_flags_wall_clock_sources(self):
        r = self.lint("src/eval/x.cc", """\
auto t0 = std::chrono::system_clock::now();
time_t t = time(NULL);
gettimeofday(&tv, nullptr);
""")
        self.assertEqual(self.rules(r), ["randomness"] * 3)

    def test_steady_clock_is_allowed(self):
        r = self.lint("src/eval/x.cc",
                      "auto t0 = std::chrono::steady_clock::now();\n")
        self.assertEqual(self.rules(r), [])

    def test_common_random_is_exempt(self):
        r = self.lint("src/common/random.cc",
                      "std::random_device rd;  // seeding policy lives here\n")
        self.assertEqual(self.rules(r), [])

    def test_identifiers_containing_time_are_not_flagged(self):
        r = self.lint("src/eval/x.cc", """\
double build_time(int n);
double t = build_time(3);
runtime(x);
""")
        self.assertEqual(self.rules(r), [])

    def test_string_literals_are_not_flagged(self):
        r = self.lint("src/eval/x.cc",
                      'const char* help = "seeded, never rand() or time(NULL)";\n')
        self.assertEqual(self.rules(r), [])


class UnorderedIterationRuleTest(LintHarness):
    SNIPPET = """\
std::unordered_map<std::string, int> counts;
for (const auto& [k, v] : counts) out.push_back(k);
"""

    def test_flags_range_for_over_unordered_map(self):
        r = self.lint("src/io/x.cc", self.SNIPPET)
        self.assertEqual(self.rules(r), ["unordered-iteration"])
        self.assertEqual(r.diagnostics[0].line, 2)

    def test_ordered_waiver_with_reason_suppresses(self):
        r = self.lint("src/io/x.cc", """\
std::unordered_map<std::string, int> counts;
// lint:ordered -- pure counting, order-insensitive
for (const auto& [k, v] : counts) total += v;
""")
        self.assertEqual(self.rules(r), [])
        self.assertEqual(len(r.waivers), 1)
        self.assertEqual(r.waivers[0].rule, "unordered-iteration")

    def test_waiver_explanation_may_span_comment_lines(self):
        r = self.lint("src/io/x.cc", """\
std::unordered_map<std::string, int> counts;
// lint:ordered -- pure counting, order-insensitive; and what is more,
// this continuation line does not break the waiver's coverage.
for (const auto& [k, v] : counts) total += v;
""")
        self.assertEqual(self.rules(r), [])

    def test_waiver_without_reason_is_an_error_and_does_not_suppress(self):
        r = self.lint("src/io/x.cc", """\
std::unordered_map<std::string, int> counts;
// lint:ordered
for (const auto& [k, v] : counts) out.push_back(k);
""")
        self.assertEqual(sorted(self.rules(r)),
                         ["unordered-iteration", "waiver-syntax"])

    def test_vector_iteration_not_flagged(self):
        r = self.lint("src/io/x.cc", """\
std::vector<int> counts;
for (int v : counts) total += v;
""")
        self.assertEqual(self.rules(r), [])

    def test_function_signature_does_not_leak_parameter_names(self):
        # `values` below is a vector parameter of a function RETURNING an
        # unordered set; iterating it must not be flagged.
        r = self.lint("src/distance/x.cc", """\
std::unordered_set<std::string> Distinct(const std::vector<std::string>& values) {
  std::unordered_set<std::string> set;
  for (const auto& v : values) set.insert(v);
  return set;
}
""")
        self.assertEqual(self.rules(r), [])

    def test_comma_separated_declarators_all_tracked(self):
        r = self.lint("src/io/x.cc", """\
std::unordered_map<std::string, int> ca, cb;
for (const auto& [k, v] : cb) out.push_back(k);
""")
        self.assertEqual(self.rules(r), ["unordered-iteration"])


class PointerSortRuleTest(LintHarness):
    def test_flags_pointer_value_comparator(self):
        r = self.lint("src/gp/x.cc", """\
std::sort(ops.begin(), ops.end(),
          [](const Operator* a, const Operator* b) { return a < b; });
""")
        self.assertEqual(self.rules(r), ["pointer-sort"])

    def test_comparing_through_pointees_is_fine(self):
        r = self.lint("src/gp/x.cc", """\
std::sort(ops.begin(), ops.end(),
          [](const Operator* a, const Operator* b) { return a->id < b->id; });
""")
        self.assertEqual(self.rules(r), [])

    def test_value_comparator_is_fine(self):
        r = self.lint("src/gp/x.cc", """\
std::sort(v.begin(), v.end(), [](const Link& x, const Link& y) {
  return x.score > y.score;
});
""")
        self.assertEqual(self.rules(r), [])

    def test_min_element_also_checked(self):
        r = self.lint("src/gp/x.cc", """\
auto it = std::min_element(ptrs.begin(), ptrs.end(),
                           [](const T* x, const T* y) { return x < y; });
""")
        self.assertEqual(self.rules(r), ["pointer-sort"])


class RawMutexRuleTest(LintHarness):
    def test_flags_std_mutex_outside_common(self):
        r = self.lint("src/api/x.h", "  std::mutex mutex_;\n")
        self.assertEqual(self.rules(r), ["raw-mutex"])

    def test_flags_shared_mutex_and_condition_variable(self):
        r = self.lint("src/api/x.h", """\
  std::shared_mutex rw_;
  std::condition_variable cv_;
""")
        self.assertEqual(self.rules(r), ["raw-mutex", "raw-mutex"])

    def test_common_is_exempt(self):
        r = self.lint("src/common/mutex.h", "  std::mutex mutex_;\n")
        self.assertEqual(self.rules(r), [])

    def test_annotated_wrappers_are_fine(self):
        r = self.lint("src/api/x.h", """\
  Mutex mutex_;
  CondVar cv_;
""")
        self.assertEqual(self.rules(r), [])

    def test_allow_waiver_suppresses(self):
        r = self.lint("src/api/x.h",
                      "  std::mutex m_;  // lint:allow(raw-mutex) -- FFI type must match C ABI\n")
        self.assertEqual(self.rules(r), [])


class FloatAccumRuleTest(LintHarness):
    SNIPPET = """\
double Mean(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) {
    sum += x;
  }
  return sum / xs.size();
}
"""

    def test_flags_in_gated_dirs(self):
        for d in ("eval", "gp", "api"):
            r = self.lint(f"src/{d}/x.cc", self.SNIPPET)
            self.assertEqual(self.rules(r), ["float-accum"], d)

    def test_not_flagged_outside_gated_dirs(self):
        r = self.lint("src/io/x.cc", self.SNIPPET)
        self.assertEqual(self.rules(r), [])

    def test_integer_accumulation_is_fine(self):
        r = self.lint("src/eval/x.cc", """\
size_t total = 0;
for (const auto& island : islands) {
  total += island.size();
}
""")
        self.assertEqual(self.rules(r), [])

    def test_accumulation_outside_loop_is_fine(self):
        r = self.lint("src/eval/x.cc", """\
double sum = 0.0;
sum += first;
sum += second;
""")
        self.assertEqual(self.rules(r), [])

    def test_waiver_with_reason_suppresses(self):
        r = self.lint("src/eval/x.cc", """\
double sum = 0.0;
for (double x : xs) {
  // lint:allow(float-accum) -- serial loop, vector index order
  sum += x;
}
""")
        self.assertEqual(self.rules(r), [])
        self.assertEqual(len(r.waivers), 1)


class WaiverAuditTest(LintHarness):
    def test_unknown_rule_in_waiver_is_an_error(self):
        r = self.lint("src/io/x.cc",
                      "// lint:allow(made-up-rule) -- because\nint x;\n")
        self.assertEqual(self.rules(r), ["waiver-syntax"])

    def test_list_waivers_exit_code_and_output(self):
        self.write("src/eval/x.cc", """\
double sum = 0.0;
for (double x : xs) {
  sum += x;  // lint:allow(float-accum) -- fixed order
}
""")
        import contextlib
        import io
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = genlink_lint.main(["--list-waivers", "src"])
        self.assertEqual(code, 0)
        self.assertIn("fixed order", buf.getvalue())
        self.assertIn("1 waiver(s)", buf.getvalue())


class CliTest(LintHarness):
    def test_exit_codes(self):
        import contextlib
        import io
        self.write("src/api/clean.cc", "int f() { return 1; }\n")
        with contextlib.redirect_stdout(io.StringIO()):
            self.assertEqual(genlink_lint.main(["src"]), 0)
        self.write("src/api/dirty.cc", "std::mutex m_;\n")
        with contextlib.redirect_stdout(io.StringIO()), \
             contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(genlink_lint.main(["src"]), 1)
            self.assertEqual(genlink_lint.main(["no/such/path"]), 2)

    def test_diagnostic_format_is_file_line_rule(self):
        r = self.lint("src/api/x.cc", "std::mutex m_;\n")
        self.assertRegex(str(r.diagnostics[0]),
                         r"^src/api/x\.cc:1: \[raw-mutex\] ")


if __name__ == "__main__":
    unittest.main()
