#include "widget/widget.hpp"

// Comments and strings do not count as callers: orphan(1.0).
// A data member read is not a call of the same-named function.
struct Meta {
  double spread = 1.0;
};

int main() {
  namespace w = stosched::widget;
  const Meta meta;
  const w::Widget widget;
  return w::used_by_bench(meta.spread) + widget.scale(1.0) + widget(1.0) +
                     w::stale(1.0) > 0.0
             ? 0
             : 1;
}
