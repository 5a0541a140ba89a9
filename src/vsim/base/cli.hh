/**
 * @file
 * Command-line value parsing shared by every front end (tools/ and
 * bench/). Each function throws vsim::FatalError with a message that
 * names the flag; a front end catches it around its argument loop,
 * prints the message and its usage text, and exits with status 2.
 */

#ifndef VSIM_BASE_CLI_HH
#define VSIM_BASE_CLI_HH

#include <cstdint>
#include <limits>

namespace vsim
{

/**
 * The value operand of the flag at argv[i]; advances @p i past it.
 * Throws "FLAG needs a value" when argv[i] is the last argument.
 */
const char *flagValue(int argc, char **argv, int &i);

/**
 * Full-token integer in 1..@p max. Anything else (empty, trailing
 * garbage, zero, negative, out of range) throws an error naming
 * @p flag: `--scale abc` must not silently become scale 0.
 */
int parsePositiveInt(const char *flag, const char *text,
                     int max = std::numeric_limits<int>::max());

/**
 * Full-token positive 64-bit count. Rejects a leading sign, which
 * strtoull would otherwise wrap into a huge count.
 */
std::uint64_t parsePositiveU64(const char *flag, const char *text);

} // namespace vsim

#endif // VSIM_BASE_CLI_HH
