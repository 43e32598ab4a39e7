#pragma once
// Minimal JSON support (RFC 8259 subset, no DOM): one string quoter every
// emitter shares, and a validator. The repo emits JSON in several places
// (bench result files, viz::Table::write_json, obs traces and exports);
// tests and benches parse the output back through the validator to prove
// the emitters produce well-formed documents rather than JSON-shaped text.

#include <string>
#include <string_view>

namespace spice {

/// `s` as a JSON string literal, quotes included. `"` and `\` are
/// backslash-escaped, \n \r \t use their short escapes, other control
/// bytes become \u00XX; every other byte passes through unchanged.
[[nodiscard]] std::string json_quote(std::string_view s);

/// Strict validation of a complete JSON document (single top-level value,
/// only whitespace around it). On failure returns false and, when `error`
/// is non-null, stores a message with the byte offset of the problem.
[[nodiscard]] bool json_is_valid(std::string_view text, std::string* error = nullptr);

}  // namespace spice
