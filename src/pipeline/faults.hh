/**
 * @file
 * Deterministic fault injection for the serving stack.
 *
 * A FaultPlan is parsed from a `--faults` spec string and decides, as
 * a pure function of (seed, request id, node/modality name, attempt),
 * whether a given execution point is injected with a fault. Because
 * the decision is stateless hashing — no RNG stream is consumed, no
 * ordering dependency exists — two runs with the same (spec, seed,
 * requests) inject the bit-identical fault set regardless of thread
 * interleaving, and a sweep can vary the fault rate without touching
 * the arrival schedule or the model.
 *
 * Spec grammar (rules joined with ';'):
 *
 *   slow:node=<glob>:p=<prob>[:x=<factor>]   stretch the node's span
 *   fail:node=<glob>:p=<prob>                throw FaultError at entry
 *   drop_modality:mod=<glob>:p=<prob>        request loses a modality
 *
 * Fields within a rule are ':'-separated `key=value` pairs after the
 * leading kind; a segment without '=' continues the previous value, so
 * node globs containing ':' (the graph's "encoder:image" names) need
 * no escaping: `fail:node=encoder:image:p=0.1` parses as expected.
 * Globs support '*' (any run) and '?' (any one char).
 *
 * Fault semantics:
 *  - slow: the scheduler busy-extends the node's measured span to
 *    `x` times its real duration — a transient straggler (EmBench's
 *    per-device variation as a per-node event).
 *  - fail: the scheduler throws FaultError instead of running the
 *    node. Failures are transient per attempt: a retry re-rolls the
 *    decision with attempt+1, so bounded retry with backoff can
 *    recover (or exhaust and report the request failed).
 *  - drop_modality: the request arrives without that modality; the
 *    server prunes the modality's preprocess/encoder subtree and the
 *    fusion zero-imputes its feature (MultiBench-style missing-
 *    modality degradation as a serving event).
 *
 * Keying under batched dispatch (`--max-batch N`): a batch of several
 * requests executes once, so its fail and slow faults are rolled once,
 * on the head request's id (ServiceCall::first), and apply to every
 * member — one failure fails (or retries) the whole batch, one
 * straggler delays all of it. Drop faults belong to each request: they
 * are rolled per member id, and the batch runs the union of its
 * members' drop masks.
 */

#ifndef MMBENCH_PIPELINE_FAULTS_HH
#define MMBENCH_PIPELINE_FAULTS_HH

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

namespace mmbench {
namespace pipeline {

/** What a fault rule injects. */
enum class FaultKind
{
    Slow,         ///< stretch the matched node's measured span
    Fail,         ///< throw FaultError instead of running the node
    DropModality, ///< the request loses the matched modality
};

const char *faultKindName(FaultKind kind);

/**
 * Upper bound on one node's injected busy-extension, in microseconds.
 * Slow faults stretch the node's *measured* span by x, so on an
 * oversubscribed host a span inflated by preemption would otherwise
 * amplify scheduler noise by the same factor (a 20 ms steal burst
 * times x=2000 is a minute of spinning). The cap bounds any single
 * injected stall; realistic spans and factors never reach it.
 */
constexpr double kMaxInjectedStallUs = 50000.0;

/** One parsed `--faults` rule. */
struct FaultRule
{
    FaultKind kind = FaultKind::Fail;
    std::string pattern = "*"; ///< node glob (slow/fail) or modality glob
    double p = 0.0;            ///< injection probability per decision
    double slowdown = 4.0;     ///< Slow only: span multiplier (x=)
};

/**
 * Typed error thrown by the scheduler when a `fail` rule fires on a
 * node. Transient by construction: the same request retried with a
 * higher attempt re-rolls every decision.
 */
class FaultError : public std::exception
{
  public:
    FaultError(std::string node, int request, int attempt);

    const char *what() const noexcept override { return message_.c_str(); }

    const std::string &node() const { return node_; }
    int request() const { return request_; }
    int attempt() const { return attempt_; }

  private:
    std::string node_;
    std::string message_;
    int request_ = 0;
    int attempt_ = 0;
};

/**
 * Glob match with '*' (any run, including empty) and '?' (exactly one
 * character). Everything else matches literally.
 */
bool globMatch(const std::string &pattern, const std::string &text);

/**
 * A seeded set of fault rules with pure decision functions. An empty
 * plan (no rules) never injects; every decision function is then a
 * constant, so fault-free runs take no per-node hashing cost beyond
 * one pointer test.
 */
class FaultPlan
{
  public:
    FaultPlan() = default;
    FaultPlan(std::vector<FaultRule> rules, uint64_t seed);

    bool empty() const { return rules_.empty(); }
    const std::vector<FaultRule> &rules() const { return rules_; }
    uint64_t seed() const { return seed_; }

    /**
     * Combined span multiplier for one node execution; 1.0 = no
     * injection. Multiple matching slow rules compound (multiply).
     */
    double slowdownFor(int request, const std::string &node,
                       int attempt = 0) const;

    /** True when a `fail` rule fires on this node execution. */
    bool failsAt(int request, const std::string &node,
                 int attempt = 0) const;

    /** True when a `drop_modality` rule fires for this request. */
    bool dropsModality(int request, const std::string &modality) const;

    /** Any rule of the given kind present (cheap capability probe). */
    bool hasKind(FaultKind kind) const;

  private:
    /**
     * The decision core: a stateless hash of (seed, rule index,
     * request, attempt, name) mapped to [0, 1) and compared against
     * the rule's probability.
     */
    bool fires(size_t rule_idx, int request, const std::string &name,
               int attempt) const;

    std::vector<FaultRule> rules_;
    uint64_t seed_ = 0;
};

/**
 * Parse a `--faults` spec into *plan (seeded with `seed`). Empty spec
 * yields an empty plan. On grammar errors (unknown kind, missing or
 * out-of-range p, bad x, unknown key) returns false with a message in
 * *error naming the offending rule.
 */
bool parseFaultPlan(const std::string &spec, uint64_t seed,
                    FaultPlan *plan, std::string *error);

} // namespace pipeline
} // namespace mmbench

#endif // MMBENCH_PIPELINE_FAULTS_HH
