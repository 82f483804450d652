#include "widget/widget.hpp"

// Comments and strings do not count as callers: orphan(1.0).
int main() { return fixture::used_by_bench(1.0) > 0.0 ? 0 : 1; }
