#ifndef EMX_BLOCK_ATTR_EQUIVALENCE_BLOCKER_H_
#define EMX_BLOCK_ATTR_EQUIVALENCE_BLOCKER_H_

#include <functional>
#include <string>

#include "src/block/blocker.h"
#include "src/block/key_join.h"

namespace emx {

// Attribute-equivalence (AE) blocker: a pair survives iff the (transformed)
// blocking attributes of both records are equal and non-null (§7 step 1).
//
// The paper's M1 rule compares the *suffix* of the UMETRICS award number
// with the full USDA award number; rather than materializing a temporary
// column the way the authors did, each side takes an optional transform
// applied to the attribute value before comparison. Blocking is the
// equality join on that key (EqualityJoin), the same join keyed positive
// rules run.
class AttrEquivalenceBlocker : public Blocker {
 public:
  using Transform = KeyTransform;

  AttrEquivalenceBlocker(std::string left_attr, std::string right_attr,
                         Transform left_transform = nullptr,
                         Transform right_transform = nullptr);

  using Blocker::Block;
  Result<CandidateSet> Block(const Table& left, const Table& right,
                             const ExecutorContext& ctx) const override;

  std::string name() const override {
    return "ae(" + key_.left.attr + "=" + key_.right.attr + ")";
  }

  // The join key (MatchService::Create answers the blocker from a resident
  // index on its right side).
  const EqualityKey& key() const { return key_; }

 private:
  EqualityKey key_;
};

}  // namespace emx

#endif  // EMX_BLOCK_ATTR_EQUIVALENCE_BLOCKER_H_
