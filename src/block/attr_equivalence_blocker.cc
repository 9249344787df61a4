#include "src/block/attr_equivalence_blocker.h"

namespace emx {

AttrEquivalenceBlocker::AttrEquivalenceBlocker(std::string left_attr,
                                               std::string right_attr,
                                               Transform left_transform,
                                               Transform right_transform)
    : key_{{std::move(left_attr), std::move(left_transform)},
           {std::move(right_attr), std::move(right_transform)}} {}

Result<CandidateSet> AttrEquivalenceBlocker::Block(
    const Table& left, const Table& right, const ExecutorContext& ctx) const {
  return EqualityJoin(left, right, key_, ctx);
}

}  // namespace emx
