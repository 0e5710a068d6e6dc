/**
 * @file
 * The host clock every timed path reads: scheduler node stamps, the
 * serve dispatcher's arrival timeline and the runner's repetitions.
 */

#ifndef MMBENCH_CORE_CLOCK_HH
#define MMBENCH_CORE_CLOCK_HH

#include <chrono>

namespace mmbench {
namespace core {

/** Monotonic host time in microseconds (steady_clock). */
inline double
nowUs()
{
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace core
} // namespace mmbench

#endif // MMBENCH_CORE_CLOCK_HH
