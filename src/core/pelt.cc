#include "src/core/pelt.h"

// Decay lives inline in the header: ValueAt runs once per entity per
// balance fold, and the saturation short-circuit is worth having at the call
// site. This TU stays in the build as the class's definition home should
// out-of-line members return.
