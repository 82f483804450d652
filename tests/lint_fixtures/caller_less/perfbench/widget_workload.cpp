#include "widget/widget.hpp"

double widget_workload() { return fixture::used_by_perfbench(2.0); }
