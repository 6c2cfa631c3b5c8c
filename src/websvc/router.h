// Path router with ":param" captures.
//
// Routes are registered as (method, pattern, handler); a pattern segment
// beginning with ':' captures the corresponding request segment into
// PathParams. Handlers respond through a callback so they can complete
// asynchronously (the Amnesia password endpoint answers only after the
// phone's token arrives).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "websvc/http.h"

namespace amnesia::websvc {

using PathParams = std::map<std::string, std::string>;
using Responder = std::function<void(Response)>;
using Handler =
    std::function<void(const Request&, const PathParams&, Responder)>;

class Router {
 public:
  /// Registers a route. Throws ProtocolError on duplicate (method, pattern).
  void add(Method method, const std::string& pattern, Handler handler);

  /// Dispatches to the first matching route; returns false when no route
  /// matches (the caller then produces a 404).
  bool dispatch(const Request& req, const Responder& respond) const;

  struct Route {
    Method method;
    std::string pattern;
    Handler handler;
    /// Registration index, so callers can keep per-route side tables.
    std::size_t id;
    std::vector<std::string> segments;  // `pattern`, split on '/'
  };

  /// Resolves `req` to its route without invoking it, filling `params`;
  /// null when no route matches. Lets the server label per-route metrics
  /// by pattern (bounded cardinality) instead of by raw request path.
  /// Routes are never removed or moved, so the pointer stays valid.
  const Route* find(const Request& req, PathParams& params) const;

 private:
  static std::vector<std::string> split_path(const std::string& path);
  static bool match(const Route& route,
                    const std::vector<std::string>& segments,
                    PathParams& params);

  std::deque<Route> routes_;
};

}  // namespace amnesia::websvc
