#include "core/charset.h"

#include <array>

namespace amnesia::core {

namespace {

const char kLower[] = "abcdefghijklmnopqrstuvwxyz";
const char kUpper[] = "ABCDEFGHIJKLMNOPQRSTUVWXYZ";
const char kDigits[] = "0123456789";
const char kSpecials[] = "!\"#$%&'()*+,-./:;<=>?@[\\]^_`{|}~";

}  // namespace

CharacterTable::CharacterTable(std::string chars) : chars_(std::move(chars)) {
  if (chars_.empty()) {
    throw ProtocolError("CharacterTable: empty character set");
  }
}

CharacterTable CharacterTable::default_table() {
  // '!' (33) .. '~' (126): exactly the 94 printable non-space characters.
  std::string chars;
  chars.reserve(94);
  for (char c = '!'; c <= '~'; ++c) chars.push_back(c);
  return CharacterTable(std::move(chars));
}

CharacterTable CharacterTable::from_categories(bool lowercase, bool uppercase,
                                               bool digits, bool specials) {
  std::string chars;
  if (lowercase) chars += kLower;
  if (uppercase) chars += kUpper;
  if (digits) chars += kDigits;
  if (specials) chars += kSpecials;
  if (chars.empty()) {
    throw ProtocolError("CharacterTable: no categories selected");
  }
  return CharacterTable(std::move(chars));
}

CharacterTable CharacterTable::custom(const std::string& characters) {
  std::array<bool, 256> seen{};
  std::string deduped;
  deduped.reserve(characters.size());
  for (const char c : characters) {
    bool& was_seen = seen[static_cast<unsigned char>(c)];
    if (!was_seen) deduped.push_back(c);
    was_seen = true;
  }
  return CharacterTable(std::move(deduped));
}

std::string PasswordPolicy::encode() const {
  return std::to_string(length) + ":" + charset.characters();
}

PasswordPolicy PasswordPolicy::decode(const std::string& encoded) {
  const std::size_t colon = encoded.find(':');
  if (colon == std::string::npos) {
    throw FormatError("PasswordPolicy: missing ':' separator");
  }
  std::size_t length = 0;
  try {
    length = std::stoul(encoded.substr(0, colon));
  } catch (const std::exception&) {
    throw FormatError("PasswordPolicy: bad length field");
  }
  PasswordPolicy policy{CharacterTable::custom(encoded.substr(colon + 1)),
                        length};
  policy.validate();
  return policy;
}

}  // namespace amnesia::core
