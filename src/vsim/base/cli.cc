#include "cli.hh"

#include <cerrno>
#include <cstdlib>
#include <string>

#include "logging.hh"

namespace vsim
{

const char *
flagValue(int argc, char **argv, int &i)
{
    if (i + 1 >= argc)
        throw FatalError(std::string(argv[i]) + " needs a value");
    return argv[++i];
}

int
parsePositiveInt(const char *flag, const char *text, int max)
{
    errno = 0;
    char *end = nullptr;
    const long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE || v <= 0
        || v > std::numeric_limits<int>::max()) {
        throw FatalError(std::string(flag)
                         + " expects a positive integer, got '" + text
                         + "'");
    }
    if (v > max) {
        throw FatalError(std::string(flag) + " " + text
                         + " exceeds the supported maximum of "
                         + std::to_string(max));
    }
    return static_cast<int>(v);
}

std::uint64_t
parsePositiveU64(const char *flag, const char *text)
{
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (text[0] == '-' || text[0] == '+' || end == text || *end != '\0'
        || errno == ERANGE || v == 0) {
        throw FatalError(std::string(flag)
                         + " expects a positive count, got '" + text
                         + "'");
    }
    return static_cast<std::uint64_t>(v);
}

} // namespace vsim
