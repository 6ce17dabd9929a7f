// Unit test of the benchmark's percentile rule and report encoding.
// Exit status 0 when every check holds; each failure is printed.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "ledger.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

}  // namespace

int main() {
  using avdbench::percentile;

  // Nearest rank: p50 of 1..20 is the 10th value, p90 of 1..100 the 90th.
  check(percentile(one_to(20), 50) == 10.0, "p50 of 1..20 is 10");
  check(percentile(one_to(100), 90) == 90.0, "p90 of 1..100 is 90");
  check(percentile(one_to(21), 50) == 11.0, "p50 of 1..21 is 11");
  check(percentile(one_to(200), 95) == 190.0, "p95 of 1..200 is 190");

  // Refusal: fewer than ten samples beyond the rank.
  check(!percentile(one_to(19), 50).has_value(), "p50 refused with 19");
  check(!percentile(one_to(99), 90).has_value(), "p90 refused with 99");
  check(percentile(one_to(100), 90).has_value(), "p90 allowed with 100");
  check(!percentile(one_to(1000), 100).has_value(), "p100 always refused");
  check(!percentile({}, 50).has_value(), "empty refused");
  check(!percentile(one_to(50), 0).has_value(), "p0 refused");

  check(avdbench::median({3, 1, 2}) == 2.0, "median of odd set");
  check(avdbench::median({4, 1, 2, 3}) == 2.5, "median of even set");

  // A refused percentile fails the run instead of reporting a number.
  avdbench::Report refused;
  refused.set_percentile("frame_ms_p90", one_to(50), 90, "ms");
  check(!refused.correct(), "refused percentile fails the run");
  check(std::isnan(refused.metrics().at("frame_ms_p90").value),
        "refused percentile has no value");

  avdbench::Report ok;
  ok.attempt(10);
  ok.set("setup_s", 1.0 / 3.0, "s", 3);
  ok.gate("g", true);
  const std::string json = ok.to_json();
  check(ok.correct(), "passing gates are correct");
  check(json.find("\"setup_s\": {\"value\": 0.33333333333333331") !=
            std::string::npos,
        "values keep all their digits");
  check(json.rfind("{\"correct\": true, \"attempted\": 10, \"failed\": 0", 0) ==
            0,
        "report line starts with the contract keys");

  avdbench::Report failing;
  failing.attempt(5);
  failing.gate("mismatch", false, 7);
  check(failing.failed() == 7 && !failing.correct(), "failed gate counts");
  check(failing.to_json().find("\"failed\": 5") != std::string::npos,
        "failed never exceeds attempted");

  std::printf(failures == 0 ? "stats_test: all checks passed\n"
                            : "stats_test: %d failures\n",
              failures);
  return failures == 0 ? 0 : 1;
}
