#include "attacks/scenarios.h"

#include "attacks/guessing.h"
#include "core/generate.h"
#include "crypto/sha256.h"

namespace amnesia::attacks {

namespace {

/// Synchronously generates a password through the real pipeline so the
/// attack has live traffic / ground truth to work with.
std::string ground_truth_password(eval::Testbed& bed,
                                  const core::AccountId& account) {
  const auto result = bed.get_password(account.username, account.domain);
  if (!result.ok()) {
    throw ProtocolError("attack setup: password generation failed: " +
                        result.message());
  }
  return result.value();
}

}  // namespace

ServerBreachReport run_server_breach(
    eval::Testbed& bed, const std::string& victim,
    const std::vector<std::string>& mp_dictionary) {
  ServerBreachReport report;

  // The breach: full read of the server database (data at rest).
  const auto& db = bed.server().db();
  report.users_exposed = db.raw().table("users").size();
  const auto user = db.get_user(victim);
  if (!user) return report;

  report.oid_exposed = true;  // Oid is stored in the clear (Table I)
  report.registration_id_exposed = user->registration_id.has_value();
  const auto accounts = db.list_accounts(victim);
  report.seeds_exposed = !accounts.empty();
  for (const auto& account : accounts) {
    report.visible_accounts.push_back(account.id.username + "@" +
                                      account.id.domain);
  }

  // Password recovery without the phone requires the 256-bit token T.
  report.token_bruteforce_space_log10 = bit_space_log10(256);
  report.site_password_recovered = false;  // structurally impossible here

  // Offline dictionary attack on H(MP, salt).
  report.dictionary_size = mp_dictionary.size();
  for (const auto& guess : mp_dictionary) {
    if (crypto::PasswordHasher::verify(to_bytes(guess), user->mp_record)) {
      report.master_password_cracked = true;
      report.cracked_master_password = guess;
      break;
    }
  }
  return report;
}

PhoneCompromiseReport run_phone_compromise(eval::Testbed& bed,
                                           const std::string& victim,
                                           const core::AccountId& account) {
  PhoneCompromiseReport report;

  // Ground truth for comparison (generated before the "theft").
  const std::string real_password = ground_truth_password(bed, account);

  // The theft: full K_p = (Pid, T_E).
  const core::PhoneSecrets stolen_kp = bed.phone().secrets();
  report.kp_extracted = true;
  report.entry_table_size = stolen_kp.entry_table.size();

  // Without K_s the attacker cannot form R (sigma is 256-bit and
  // server-side) nor the final hash (Oid is server-side).
  report.seed_space_log10 = bit_space_log10(256);
  report.site_password_recovered = false;

  // Control experiment: combine the stolen K_p with a server breach.
  const auto ks = bed.server().db().server_secrets(victim);
  if (ks) {
    if (const auto* entry = ks->find(account)) {
      const std::string derived = core::end_to_end_password(
          entry->id, entry->seed, ks->oid, stolen_kp.entry_table,
          entry->policy);
      report.password_recovered_with_server_breach =
          derived == real_password;
    }
  }
  return report;
}

RendezvousEavesdropReport run_rendezvous_eavesdrop(
    eval::Testbed& bed, const std::string& victim,
    const core::AccountId& account,
    const std::vector<core::AccountId>& candidates) {
  (void)victim;
  RendezvousEavesdropReport report;

  WireTap tap(bed.net(), "gcm", "phone");
  ground_truth_password(bed, account);

  std::vector<core::Request> observed_requests;
  for (const auto& frame : tap.captured()) {
    const auto env = envelope_of(frame);
    if (!env) continue;
    // GCM one-way pushes carry the PasswordRequestPush in the clear.
    const auto push = core::PasswordRequestPush::decode(*env);
    if (push) {
      observed_requests.push_back(push->request);
      ++report.requests_observed;
    }
  }
  report.push_payload_readable = report.requests_observed > 0;

  // The attack: match R against H(u || d) for candidate accounts. sigma
  // blinds R, so no candidate matches.
  for (const auto& request : observed_requests) {
    for (const auto& candidate : candidates) {
      const Bytes guess = crypto::sha256(
          to_bytes(candidate.username + candidate.domain));
      if (ct_equal(guess, request.bytes())) {
        report.account_identified = true;
      }
    }
  }

  // Counterfactual: had the protocol used R' = H(u || d) without sigma,
  // the same matching identifies the account immediately.
  const Bytes unseeded =
      crypto::sha256(to_bytes(account.username + account.domain));
  for (const auto& candidate : candidates) {
    const Bytes guess =
        crypto::sha256(to_bytes(candidate.username + candidate.domain));
    if (ct_equal(guess, unseeded) && candidate == account) {
      report.account_identified_without_seed = true;
    }
  }
  return report;
}

HttpsCompromiseReport run_browser_leg_compromise(
    eval::Testbed& bed, const std::string& victim,
    const core::AccountId& account) {
  (void)victim;
  HttpsCompromiseReport report;

  WireTap tap(bed.net(), "", "");
  const std::string real_password = ground_truth_password(bed, account);

  // Endpoint compromise: the adversary holds the browser's channel keys.
  const auto* keys = bed.browser().channel().debug_keys();
  if (keys == nullptr) return report;

  // Only frames on the browser<->server path will decrypt.
  const auto responses =
      decrypt_records(tap.captured(), *keys, Direction::kServerToClient);
  report.records_decrypted = responses.size();
  const auto scraped = scrape_form_field(responses, "password");
  if (scraped && *scraped == real_password) {
    report.generated_password_stolen = true;
    report.stolen_password = *scraped;
  }
  return report;
}

HttpsCompromiseReport run_phone_leg_compromise(eval::Testbed& bed,
                                               const std::string& victim,
                                               const core::AccountId& account) {
  (void)victim;
  HttpsCompromiseReport report;

  WireTap tap(bed.net(), "phone", "amnesia-server");
  const std::string real_password = ground_truth_password(bed, account);

  const auto* keys = bed.phone().server_channel().debug_keys();
  if (keys == nullptr) return report;

  const auto submissions =
      decrypt_records(tap.captured(), *keys, Direction::kClientToServer);
  report.records_decrypted = submissions.size();
  const auto token_hex = scrape_form_field(submissions, "token");
  report.token_observed = token_hex.has_value();
  // "having T alone is useless": no Oid, no sigma, no password. The
  // scraped traffic contains no password field either way.
  const auto password = scrape_form_field(submissions, "password");
  report.password_derived_from_token =
      password.has_value() && *password == real_password;
  return report;
}

RogueRequestReport run_rogue_request(eval::Testbed& bed,
                                     const std::string& victim,
                                     const core::AccountId& account,
                                     bool user_accepts) {
  RogueRequestReport report;

  // Breach haul: K_s (Oid + seeds), Rid, and the channel static key.
  const auto ks = bed.server().db().server_secrets(victim);
  const auto user = bed.server().db().get_user(victim);
  if (!ks || !user || !user->registration_id) return report;
  const auto* entry = ks->find(account);
  if (entry == nullptr) return report;
  const auto static_keys = bed.server().breached_static_keys();

  // The user's stance toward an unexpected push.
  bed.phone().set_confirmation_policy(
      [user_accepts](const core::PasswordRequestPush&) {
        return user_accepts;
      });

  // Passive wiretap on the phone->server leg; force a fresh *full*
  // handshake so the capture includes the hellos the key-derivation
  // needs (a ticket-preserving reset would resume instead, and a resume
  // hello carries no ephemeral public key to attack).
  WireTap uplink_tap(bed.net(), "phone", "amnesia-server");
  WireTap downlink_tap(bed.net(), "amnesia-server", "phone");
  bed.phone().server_channel().forget_ticket();
  bed.phone().server_channel().reset();

  // The rogue push: R computed from the stolen sigma, sent through the
  // real rendezvous service with the victim's registration id.
  simnet::Node mallory(bed.net(), "mallory-server");
  rendezvous::PushClient mallory_push(mallory, "gcm");
  const core::Request r = core::make_request(account, entry->seed);
  const core::PasswordRequestPush push{/*request_id=*/9999, r,
                                       /*origin_ip=*/"198.51.100.66",
                                       /*tstart_us=*/0, /*trace=*/""};
  bool delivered = false;
  mallory_push.push(*user->registration_id, push.encode(),
                    /*ttl_us=*/60'000'000,
                    [&](Status s) { delivered = s.ok(); });
  bed.sim().run();
  report.push_delivered = delivered;
  report.user_accepted =
      user_accepts && bed.phone().stats().pushes_received > 0;

  // Merge both directions so the handshake pair is complete — the client
  // hello (uplink) must precede the server hello (downlink) — then derive
  // the channel keys from the static private key (no forward secrecy).
  std::vector<simnet::Message> all_frames = uplink_tap.captured();
  all_frames.insert(all_frames.end(), downlink_tap.captured().begin(),
                    downlink_tap.captured().end());
  const auto keys =
      derive_keys_from_capture(all_frames, static_keys.private_key);
  if (keys) {
    const auto submissions = decrypt_records(uplink_tap.captured(), *keys,
                                             Direction::kClientToServer);
    const auto token_hex = scrape_form_field(submissions, "token");
    if (token_hex) {
      report.token_captured = true;
      // Combine the stolen token with the stolen K_s: game over.
      const core::Token token = core::Token::from_hex(*token_hex);
      const std::string derived = core::generate_password(
          token, ks->oid, entry->seed, entry->policy);
      // Validate against the pipeline's ground truth.
      bed.phone().set_confirmation_policy(
          [](const core::PasswordRequestPush&) { return true; });
      const std::string real_password = ground_truth_password(bed, account);
      report.site_password_recovered = derived == real_password;
    }
  }
  return report;
}

}  // namespace amnesia::attacks
