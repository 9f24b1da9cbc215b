// Must not compile: a flag table entry whose help text is empty.  The ctest
// flags_reject_empty_help checks the compiler names the reason.
#include "flags.hpp"

bool verbose = false;
const lamsdlc::tools::Flag undocumented{"--verbose", "", verbose};
