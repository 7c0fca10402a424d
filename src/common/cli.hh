/**
 * @file
 * Command-line argument helpers shared by the tools and benchmarks.
 */

#ifndef THYNVM_COMMON_CLI_HH
#define THYNVM_COMMON_CLI_HH

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/logging.hh"

namespace thynvm {

/**
 * Parse one unsigned decimal integer no larger than @p max. The text
 * must be one or more digits and nothing else; an empty, non-numeric,
 * negative, out-of-range or trailing-junk value is a fatal error naming
 * @p flag, so a mistyped value never runs as something else.
 */
inline std::uint64_t
parseUint(const std::string& text, const char* flag,
          std::uint64_t max = UINT64_MAX)
{
    fatal_if(text.empty() ||
                 !std::isdigit(static_cast<unsigned char>(text[0])),
             "%s: expected an unsigned integer, got '%s'", flag,
             text.c_str());
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    fatal_if(*end != '\0' || errno == ERANGE || v > max,
             "%s: '%s' is not an unsigned integer no larger than %llu",
             flag, text.c_str(), static_cast<unsigned long long>(max));
    return v;
}

/**
 * Parse a comma-separated list of unsigned decimal integers ("0,1000").
 * Every token must pass parseUint(); an empty token is an error too.
 */
inline std::vector<std::uint64_t>
parseUintList(const std::string& text, const char* flag)
{
    std::vector<std::uint64_t> values;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t comma = text.find(',', pos);
        values.push_back(parseUint(
            text.substr(pos, comma == std::string::npos ? std::string::npos
                                                        : comma - pos),
            flag));
        if (comma == std::string::npos)
            return values;
        pos = comma + 1;
    }
}

} // namespace thynvm

#endif // THYNVM_COMMON_CLI_HH
