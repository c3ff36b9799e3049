// The `halotis` command-line driver, as a library so tests can exercise it.
// Every command and flag is declared once, in the flag table in cli.cpp;
// parsing, validation, `halotis help` and --connect forwarding all derive
// from it.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "src/base/supervision.hpp"

namespace halotis {

namespace serve {
struct ServeContext;
struct RequestIo;
}  // namespace serve

/// The process-wide cancellation token every supervised command polls.
/// halotis_main routes SIGINT into it (install_sigint_cancel); tests can
/// trip it directly to exercise the cancellation path in-process.
[[nodiscard]] const CancelToken& cli_cancel_token();

/// Runs the CLI; returns the process exit code (see the README exit-code
/// table: 0 ok, 1 contract violation / generic failure, 2 usage, 3 budget
/// exceeded, 4 deadline exceeded, 5 cancelled, 6 I/O error).  `args`
/// excludes argv[0].
int run_cli(const std::vector<std::string>& args, std::ostream& out, std::ostream& err);

/// run_cli with the daemon seam exposed: non-null `context` / `io` mark a
/// daemon-side request, which resolves input paths against the files the
/// client shipped, collects artifacts into the response frame, consults the
/// keyed elaboration cache, and serves a restricted command surface (sim,
/// sta, fault, variation).  run_cli(a, o, e) == run_cli_service(a, o, e,
/// nullptr, nullptr).  This is the production serve::Executor -- `halotis
/// serve` wires it into the Server (docs/DAEMON.md).
int run_cli_service(const std::vector<std::string>& args, std::ostream& out,
                    std::ostream& err, serve::ServeContext* context, serve::RequestIo* io);

/// Usage text, rendered from the flag table: each command's own flags,
/// then each shared group under the commands that take it.
[[nodiscard]] std::string cli_usage();

}  // namespace halotis
