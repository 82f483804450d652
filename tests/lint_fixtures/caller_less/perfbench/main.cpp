#include "widget/widget.hpp"

int main() { return stosched::widget::used_by_perfbench(2.0) > 0.0 ? 0 : 1; }
