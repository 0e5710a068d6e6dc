/**
 * @file
 * Unit tests for the core utilities: formatting, RNG, tables, CSV,
 * and the parallel runtime.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <set>
#include <sstream>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/csv.hh"
#include "core/logging.hh"
#include "core/parallel.hh"
#include "core/rng.hh"
#include "core/string_utils.hh"
#include "core/table.hh"

namespace mmbench {
namespace {

TEST(StrFmt, BasicFormatting)
{
    EXPECT_EQ(strfmt("x=%d", 42), "x=42");
    EXPECT_EQ(strfmt("%s/%s", "a", "b"), "a/b");
    EXPECT_EQ(strfmt("%.2f", 3.14159), "3.14");
}

TEST(StrFmt, EmptyAndLong)
{
    EXPECT_EQ(strfmt("%s", ""), "");
    std::string big(1000, 'x');
    EXPECT_EQ(strfmt("%s", big.c_str()), big);
}

TEST(StringUtils, JoinAndSplit)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_EQ(join({}, ","), "");
    EXPECT_EQ(join({"solo"}, ","), "solo");

    auto parts = split("a,b,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "c");
}

TEST(StringUtils, SplitPreservesEmptyFields)
{
    auto parts = split("a,,c", ',');
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[1], "");
}

TEST(StringUtils, FormatBytes)
{
    EXPECT_EQ(formatBytes(512), "512 B");
    EXPECT_EQ(formatBytes(1536), "1.50 KB");
    EXPECT_EQ(formatBytes(3ULL * 1024 * 1024), "3.00 MB");
}

TEST(StringUtils, FormatMicros)
{
    EXPECT_EQ(formatMicros(12.0), "12.00 us");
    EXPECT_EQ(formatMicros(12000.0), "12.00 ms");
    EXPECT_EQ(formatMicros(2.5e6), "2.500 s");
}

TEST(StringUtils, FormatCount)
{
    EXPECT_EQ(formatCount(999), "999");
    EXPECT_EQ(formatCount(1500), "1.5 K");
    EXPECT_EQ(formatCount(2.5e6), "2.5 M");
    EXPECT_EQ(formatCount(3.0e9), "3.00 G");
}

TEST(StringUtils, Padding)
{
    EXPECT_EQ(padLeft("x", 3), "  x");
    EXPECT_EQ(padRight("x", 3), "x  ");
    EXPECT_EQ(padLeft("long", 2), "long");
}

TEST(StringUtils, StartsWithAndToLower)
{
    EXPECT_TRUE(startsWith("av-mnist", "av"));
    EXPECT_FALSE(startsWith("av", "av-mnist"));
    EXPECT_EQ(toLower("AV-MNIST"), "av-mnist");
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next());
    EXPECT_LT(same, 4);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanRoughlyHalf)
{
    Rng rng(11);
    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        acc += rng.uniform();
    EXPECT_NEAR(acc / n, 0.5, 0.02);
}

TEST(Rng, RandintInclusiveBounds)
{
    Rng rng(5);
    std::set<int64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        int64_t v = rng.randint(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u); // all 5 values hit in 1000 draws
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    double sum = 0.0, sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        double g = rng.gaussian();
        sum += g;
        sq += g * g;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(Rng, GaussianShifted)
{
    Rng rng(17);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.gaussian(10.0, 2.0);
    EXPECT_NEAR(sum / n, 10.0, 0.1);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(19);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, CategoricalRespectsWeights)
{
    Rng rng(23);
    std::vector<double> w = {1.0, 0.0, 3.0};
    int counts[3] = {0, 0, 0};
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        counts[rng.categorical(w)]++;
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[2]) / n, 0.75, 0.02);
}

TEST(Rng, PermutationIsPermutation)
{
    Rng rng(29);
    auto p = rng.permutation(50);
    std::set<size_t> s(p.begin(), p.end());
    EXPECT_EQ(s.size(), 50u);
    EXPECT_EQ(*s.begin(), 0u);
    EXPECT_EQ(*s.rbegin(), 49u);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.addRow({"alpha", "1.0"});
    t.addRow({"b", "20.5"});
    std::string s = t.toString();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("20.5"), std::string::npos);
    // Header separator lines present.
    EXPECT_NE(s.find("+--"), std::string::npos);
    EXPECT_EQ(t.rowCount(), 2u);
}

TEST(TextTable, SeparatorRows)
{
    TextTable t({"a"});
    t.addRow({"1"});
    t.addSeparator();
    t.addRow({"2"});
    EXPECT_EQ(t.rowCount(), 2u);
    // 5 separator lines total: top, under-header, mid, bottom... count '+'.
    std::string s = t.toString();
    size_t lines = 0;
    for (char c : s)
        lines += (c == '\n');
    EXPECT_EQ(lines, 7u);
}

TEST(Csv, EscapesSpecialCharacters)
{
    CsvWriter w({"a", "b"});
    w.addRow({"plain", "with,comma"});
    w.addRow({"quote\"inside", "line\nbreak"});
    std::ostringstream os;
    w.write(os);
    std::string s = os.str();
    EXPECT_NE(s.find("\"with,comma\""), std::string::npos);
    EXPECT_NE(s.find("\"quote\"\"inside\""), std::string::npos);
    EXPECT_EQ(w.rowCount(), 2u);
}

TEST(Csv, HeaderFirstLine)
{
    CsvWriter w({"x", "y"});
    w.addRow({"1", "2"});
    std::ostringstream os;
    w.write(os);
    EXPECT_TRUE(startsWith(os.str(), "x,y\n"));
}

TEST(Parallel, CoversRangeExactlyOnce)
{
    // Chunks are disjoint, so per-index writes cannot race.
    std::vector<int> hits(1000, 0);
    core::parallelFor(0, 1000, 16, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i)
            ++hits[static_cast<size_t>(i)];
    });
    for (int h : hits)
        EXPECT_EQ(h, 1);
}

TEST(Parallel, EmptyAndSingleElementRanges)
{
    std::atomic<int> calls{0};
    core::parallelFor(5, 5, 1, [&](int64_t, int64_t) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
    core::parallelFor(7, 8, 64, [&](int64_t b, int64_t e) {
        ++calls;
        EXPECT_EQ(b, 7);
        EXPECT_EQ(e, 8);
    });
    EXPECT_EQ(calls.load(), 1);
}

TEST(Parallel, ScopedOverrideForcesSerial)
{
    core::ScopedNumThreads guard(1);
    EXPECT_EQ(core::numThreads(), 1);
    std::atomic<int> chunks{0};
    core::parallelFor(0, 100000, 1, [&](int64_t, int64_t) { ++chunks; });
    EXPECT_EQ(chunks.load(), 1); // serial fallback runs one inline call
}

TEST(Parallel, NestedCallsDegradeToSerial)
{
    // A nested call runs as one inline chunk covering its whole range,
    // whether it comes from a worker or from the caller's own chunk.
    constexpr int64_t kOuter = 64;
    std::vector<std::atomic<int>> outer_hits(kOuter);
    std::vector<std::atomic<int>> inner_chunks(kOuter);
    std::vector<std::atomic<int>> inner_covered(kOuter);
    core::parallelFor(0, kOuter, 1, [&](int64_t b, int64_t e) {
        for (int64_t i = b; i < e; ++i) {
            const size_t k = static_cast<size_t>(i);
            ++outer_hits[k];
            core::parallelFor(0, 1000, 1, [&](int64_t ib, int64_t ie) {
                ++inner_chunks[k];
                inner_covered[k] += static_cast<int>(ie - ib);
            });
        }
    });
    for (size_t k = 0; k < static_cast<size_t>(kOuter); ++k) {
        EXPECT_EQ(outer_hits[k].load(), 1) << "outer index " << k;
        EXPECT_EQ(inner_chunks[k].load(), 1) << "outer index " << k;
        EXPECT_EQ(inner_covered[k].load(), 1000) << "outer index " << k;
    }
}

TEST(Parallel, BackToBackJobsFromTwoSubmitters)
{
    // Two threads submit seeded small jobs back to back, so one job's
    // workers are still leaving while the next is published, and the
    // second submitter queues behind the first. Every index of every
    // job must run exactly once.
    constexpr int kJobs = 3000;
    const auto submit = [](uint64_t seed, int *bad_jobs) {
        Rng rng(seed);
        std::vector<int> hits;
        for (int job = 0; job < kJobs; ++job) {
            const int64_t range = rng.randint(1, 300);
            const int64_t grain = rng.randint(1, 7);
            hits.assign(static_cast<size_t>(range), 0);
            core::parallelFor(0, range, grain, [&](int64_t b, int64_t e) {
                for (int64_t i = b; i < e; ++i)
                    ++hits[static_cast<size_t>(i)];
            });
            for (int h : hits) {
                if (h != 1) {
                    ++*bad_jobs;
                    break;
                }
            }
        }
    };
    int bad_main = 0, bad_other = 0;
    std::thread other(submit, 2, &bad_other);
    submit(1, &bad_main);
    other.join();
    EXPECT_EQ(bad_main, 0);
    EXPECT_EQ(bad_other, 0);
}

TEST(Parallel, ScopedCapBoundsConcurrency)
{
    for (int n = 1; n <= core::maxThreads(); ++n) {
        core::ScopedNumThreads cap(n);
        std::atomic<int> running{0};
        std::atomic<int> peak{0};
        for (int job = 0; job < 20; ++job) {
            core::parallelFor(0, 64, 1, [&](int64_t, int64_t) {
                const int now = ++running;
                int seen = peak.load();
                while (now > seen && !peak.compare_exchange_weak(seen, now)) {
                }
                // Hold the body long enough for the others to overlap.
                const auto until = std::chrono::steady_clock::now() +
                                   std::chrono::microseconds(20);
                while (std::chrono::steady_clock::now() < until) {
                }
                --running;
            });
        }
        EXPECT_GE(peak.load(), 1) << "n=" << n;
        EXPECT_LE(peak.load(), n) << "n=" << n;
    }
}

TEST(ParallelDeathTest, ForkedChildExitsWhateverStateWorkersWereIn)
{
    // A death test forks, and the child has none of the pool's
    // workers. Forking 0-108 us after a job, across the workers'
    // stay-awake window, catches them spinning, falling asleep and
    // asleep; the child's exit must not wait on any of them.
    for (int i = 0; i < 10; ++i) {
        core::parallelFor(0, 64, 1, [](int64_t, int64_t) {});
        const auto until = std::chrono::steady_clock::now() +
                           std::chrono::microseconds(12 * i);
        while (std::chrono::steady_clock::now() < until) {
        }
        EXPECT_EXIT(std::exit(0), ::testing::ExitedWithCode(0), "");
    }
}

TEST(Parallel, ThreadCountBounds)
{
    EXPECT_GE(core::maxThreads(), 1);
    EXPECT_GE(core::numThreads(), 1);
    EXPECT_LE(core::numThreads(), core::maxThreads());
}

} // namespace
} // namespace mmbench
