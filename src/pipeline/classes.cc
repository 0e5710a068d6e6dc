#include "pipeline/classes.hh"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "core/logging.hh"
#include "core/string_utils.hh"

namespace mmbench {
namespace pipeline {

namespace {

/** splitmix64 finalizer (same mixer the fault plan uses). */
uint64_t
mix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

bool
parsePositive(const std::string &text, double *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !(v > 0.0) ||
        !std::isfinite(v))
        return false;
    *out = v;
    return true;
}

bool
parseIntField(const std::string &text, int *out)
{
    if (text.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const long v = std::strtol(text.c_str(), &end, 10);
    if (end != text.c_str() + text.size() || errno == ERANGE ||
        v < INT_MIN || v > INT_MAX)
        return false;
    *out = static_cast<int>(v);
    return true;
}

} // namespace

ClassPlan::ClassPlan(std::vector<RequestClass> classes)
    : classes_(std::move(classes))
{
    double total = 0.0;
    for (const RequestClass &c : classes_)
        total += c.share;
    MM_ASSERT(classes_.empty() || total > 0.0,
              "class plan needs a positive total share");
    double acc = 0.0;
    cumulative_.reserve(classes_.size());
    for (const RequestClass &c : classes_) {
        acc += c.share / total;
        cumulative_.push_back(acc);
    }
    if (!cumulative_.empty())
        cumulative_.back() = 1.0; // absorb rounding at the top bucket
}

int
ClassPlan::classOf(int request, uint64_t seed) const
{
    if (classes_.empty())
        return 0;
    // Pure function of (seed, request): top 53 bits to [0, 1), then
    // the first cumulative bucket containing u.
    const uint64_t h = mix64(
        seed ^ mix64(static_cast<uint64_t>(static_cast<int64_t>(request))));
    const double u =
        static_cast<double>(h >> 11) * (1.0 / 9007199254740992.0);
    for (size_t i = 0; i < cumulative_.size(); ++i) {
        if (u < cumulative_[i])
            return static_cast<int>(i);
    }
    return static_cast<int>(cumulative_.size()) - 1;
}

double
ClassPlan::deadlineUsFor(size_t i, double stream_us) const
{
    if (i >= classes_.size() || classes_[i].deadlineUs <= 0.0)
        return stream_us;
    return classes_[i].deadlineUs;
}

bool
parseClassPlan(const std::string &spec, ClassPlan *plan,
               std::string *error)
{
    error->clear();
    std::vector<RequestClass> classes;
    for (const std::string &text : split(spec, ';')) {
        if (text.empty())
            continue; // tolerate trailing / doubled separators
        const std::vector<std::string> segments = split(text, ':');
        RequestClass c;
        c.name = segments[0];
        if (c.name.empty()) {
            *error = strfmt("class entry '%s' has an empty name",
                            text.c_str());
            return false;
        }
        for (const RequestClass &seen : classes) {
            if (seen.name == c.name) {
                *error = strfmt("duplicate class name '%s'",
                                c.name.c_str());
                return false;
            }
        }
        for (size_t i = 1; i < segments.size(); ++i) {
            const size_t eq = segments[i].find('=');
            if (eq == std::string::npos) {
                *error = strfmt("class entry '%s': field '%s' is not "
                                "key=value", text.c_str(),
                                segments[i].c_str());
                return false;
            }
            const std::string key = toLower(segments[i].substr(0, eq));
            const std::string value = segments[i].substr(eq + 1);
            if (key == "share") {
                if (!parsePositive(value, &c.share)) {
                    *error = strfmt("class '%s': share must be a "
                                    "number > 0, got '%s'",
                                    c.name.c_str(), value.c_str());
                    return false;
                }
            } else if (key == "prio") {
                if (!parseIntField(value, &c.priority)) {
                    *error = strfmt("class '%s': prio must be an "
                                    "integer, got '%s'", c.name.c_str(),
                                    value.c_str());
                    return false;
                }
            } else if (key == "deadline_ms") {
                double ms = 0.0;
                if (!parsePositive(value, &ms)) {
                    *error = strfmt("class '%s': deadline_ms must be a "
                                    "number > 0, got '%s'",
                                    c.name.c_str(), value.c_str());
                    return false;
                }
                c.deadlineUs = ms * 1000.0;
            } else {
                *error = strfmt("class '%s': unknown key '%s' "
                                "(expected share, prio or deadline_ms)",
                                c.name.c_str(), key.c_str());
                return false;
            }
        }
        classes.push_back(std::move(c));
    }
    if (classes.empty()) {
        *error = "class spec names no classes";
        return false;
    }
    *plan = ClassPlan(std::move(classes));
    return true;
}

std::string
classPlanToString(const ClassPlan &plan)
{
    std::string out;
    for (size_t i = 0; i < plan.size(); ++i) {
        const RequestClass &c = plan.at(i);
        if (i > 0)
            out += ";";
        out += strfmt("%s:share=%g", c.name.c_str(), c.share);
        if (c.priority != 0)
            out += strfmt(":prio=%d", c.priority);
        if (c.deadlineUs > 0.0)
            out += strfmt(":deadline_ms=%g", c.deadlineUs / 1000.0);
    }
    return out;
}

} // namespace pipeline
} // namespace mmbench
