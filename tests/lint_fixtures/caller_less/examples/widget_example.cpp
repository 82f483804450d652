#include "widget/widget.hpp"

int main() {
  const char* note = "orphan(3.0)";
  return fixture::used_by_example(3.0) > 0.0 && note ? 0 : 1;
}
