#include "widget/widget.hpp"

// Comments and strings do not count as callers: orphan(1.0).
// A data member read is not a call of the same-named function.
struct Meta {
  double spread = 1.0;
};

int main() {
  const Meta meta;
  const fixture::Widget w;
  return fixture::used_by_bench(meta.spread) + w.scale(1.0) > 0.0 ? 0 : 1;
}
