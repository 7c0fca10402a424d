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
 * Parse a comma-separated list of unsigned decimal integers ("0,1000").
 * Every token must be one or more digits that fit in 64 bits; an empty,
 * non-numeric, negative, out-of-range or trailing-junk token is a fatal
 * error naming @p flag, so a mistyped list never runs as something else.
 */
inline std::vector<std::uint64_t>
parseUintList(const std::string& text, const char* flag)
{
    std::vector<std::uint64_t> values;
    std::size_t pos = 0;
    for (;;) {
        const std::size_t comma = text.find(',', pos);
        const std::string tok = text.substr(
            pos, comma == std::string::npos ? std::string::npos
                                            : comma - pos);
        fatal_if(tok.empty() ||
                     !std::isdigit(static_cast<unsigned char>(tok[0])),
                 "%s: expected a comma-separated list of unsigned "
                 "integers, got token '%s' in '%s'",
                 flag, tok.c_str(), text.c_str());
        char* end = nullptr;
        errno = 0;
        const unsigned long long v = std::strtoull(tok.c_str(), &end, 10);
        fatal_if(*end != '\0' || errno == ERANGE,
                 "%s: '%s' in '%s' is not an unsigned 64-bit integer",
                 flag, tok.c_str(), text.c_str());
        values.push_back(v);
        if (comma == std::string::npos)
            return values;
        pos = comma + 1;
    }
}

} // namespace thynvm

#endif // THYNVM_COMMON_CLI_HH
