/**
 * @file
 * The component-side checkpoint contract.
 *
 * A Checkpointable component can serialize its complete authoritative
 * state into a CkptWriter and later reconstruct it from a CkptReader
 * positioned at the matching offset. The contract (DESIGN.md section
 * 13):
 *
 *  - Save happens only at a tick boundary (between commit and the
 *    next evaluate), where staged FIFO slots are empty and per-cycle
 *    scratch flags are dead. Components therefore serialize visible
 *    state only.
 *  - Authoritative state only. Anything rebuilt by an existing
 *    construction path — wake-mask and neighbor pointers, cached
 *    source-queue pointers, utilization counter pointers, route
 *    LUTs, derived scheduler membership — is reconstructed at
 *    construction or after load (constructors / cacheLinkCounters /
 *    the ring's schedule reseed), never serialized.
 *  - saveState() is const and must not perturb the run: a run that
 *    saves a checkpoint stays bit-identical to one that does not.
 *  - Field order is fixed and symmetric: loadState() reads exactly
 *    the fields saveState() wrote, in order. There is no tagging —
 *    the container's schema version gates incompatible layouts.
 */

#ifndef HRSIM_CKPT_CHECKPOINTABLE_HH
#define HRSIM_CKPT_CHECKPOINTABLE_HH

namespace hrsim
{

class CkptWriter;
class CkptReader;

class Checkpointable
{
  public:
    virtual ~Checkpointable() = default;

    /** Append this component's authoritative state to @a w. */
    virtual void saveState(CkptWriter &w) const = 0;

    /**
     * Restore state previously written by saveState(). The reader is
     * positioned at this component's first field; implementations
     * must consume exactly what saveState() wrote.
     */
    virtual void loadState(CkptReader &r) = 0;
};

} // namespace hrsim

#endif // HRSIM_CKPT_CHECKPOINTABLE_HH
