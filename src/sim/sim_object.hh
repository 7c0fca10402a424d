/**
 * @file
 * Base class for simulated components.
 */

#ifndef THYNVM_SIM_SIM_OBJECT_HH
#define THYNVM_SIM_SIM_OBJECT_HH

#include <string>

#include "common/stats.hh"
#include "sim/eventq.hh"

namespace thynvm {

/**
 * A named component attached to an event queue with its own stats group.
 */
class SimObject
{
  public:
    /**
     * @param eq the event queue this component schedules on.
     * @param name hierarchical instance name, e.g. "system.nvm".
     */
    SimObject(EventQueue& eq, std::string name)
        : eventq_(eq), name_(std::move(name)), stats_(name_)
    {}

    virtual ~SimObject() = default;

    SimObject(const SimObject&) = delete;
    SimObject& operator=(const SimObject&) = delete;

    /** Instance name. */
    const std::string& name() const { return name_; }
    /** Statistics owned by this component. */
    stats::Group& stats() { return stats_; }
    const stats::Group& stats() const { return stats_; }
    /** The event queue this component runs on. */
    EventQueue& eventq() { return eventq_; }
    /** Current simulated time. */
    Tick curTick() const { return eventq_.now(); }

  protected:
    EventQueue& eventq_;

  private:
    std::string name_;
    stats::Group stats_;
};

} // namespace thynvm

#endif // THYNVM_SIM_SIM_OBJECT_HH
