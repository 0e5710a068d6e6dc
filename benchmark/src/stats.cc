#include <algorithm>
#include <chrono>
#include <cmath>

#include "bench.hh"

namespace perfbench {

double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

double
relativeIqr(std::vector<double> v)
{
    const size_t n = v.size();
    if (n < 2)
        return 0.0;
    std::sort(v.begin(), v.end());
    // statistics.quantiles(v, n=4), method "exclusive".
    const auto quartile = [&](size_t i) {
        const size_t m = n + 1;
        size_t j = i * m / 4;
        j = std::min(std::max<size_t>(j, 1), n - 1);
        const double delta = static_cast<double>(i * m) -
                             static_cast<double>(j * 4);
        return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    };
    const double mid = median(v);
    return mid == 0.0 ? 0.0 : (quartile(3) - quartile(1)) / std::fabs(mid);
}

JsonValue
toJson(const std::vector<double> &v)
{
    JsonValue arr = JsonValue::array();
    for (double x : v)
        arr.push(x);
    return arr;
}

} // namespace perfbench
