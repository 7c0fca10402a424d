/**
 * @file
 * Host-speed calibration.
 *
 * The benchmark runs on shared machines whose speed moves by tens of
 * percent from one minute to the next as other tenants come and go;
 * CPU seconds track wall seconds throughout, so no rusage reading
 * shows it. A fixed calibration kernel, built only into the benchmark
 * and independent of the simulator sources, is therefore timed between
 * the workload's reps. Host seconds spent between two passes are
 * scaled by kReferencePassS over the mean of those two passes. The
 * result is in reference seconds: the seconds the same work would take
 * on a host that runs one pass in kReferencePassS.
 *
 * The kernel does what the simulator does most: pops and pushes a
 * binary heap of timed events, updates a table larger than L2 at random
 * and a small hash map, and allocates now and then.
 */

#ifndef PERFLEDGER_HOST_SPEED_HH
#define PERFLEDGER_HOST_SPEED_HH

#include <vector>

#include "ledger.hh"

namespace perfledger {

/** Host seconds one calibration pass takes at reference speed. */
constexpr double kReferencePassS = 0.06;

/** Bytes of the kernel's table, which stays resident once touched. */
constexpr double kCalibrationTableMiB = 16;

/** Host seconds of one pass of the calibration kernel. */
double calibrationPass();

/**
 * Factor that turns host seconds spent between two passes that took
 * @p before and @p after host seconds into reference seconds.
 */
inline double
referenceFactor(double before, double after)
{
    return kReferencePassS / ((before + after) / 2);
}

/** Calibration passes run between the timed stretches of one run. */
class HostSpeed
{
  public:
    HostSpeed() : last_(calibrationPass()) {}

    /**
     * Run @p fn, then a calibration pass. @return the factor that turns
     * host seconds spent in @p fn into reference seconds, taken from
     * the passes just before and just after it.
     */
    template <typename Fn>
    double
    bracket(Fn&& fn)
    {
        const double before = last_;
        fn();
        last_ = calibrationPass();
        factors_.push_back(referenceFactor(before, last_));
        return factors_.back();
    }

    /** Median factor so far (1 before the first bracket). */
    double medianFactor() const
    {
        return factors_.empty() ? 1.0 : median(factors_);
    }

  private:
    double last_;
    std::vector<double> factors_;
};

} // namespace perfledger

#endif // PERFLEDGER_HOST_SPEED_HH
