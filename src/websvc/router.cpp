#include "websvc/router.h"

#include "common/error.h"

namespace amnesia::websvc {

std::vector<std::string> Router::split_path(const std::string& path) {
  std::vector<std::string> segments;
  std::size_t start = 0;
  while (start < path.size()) {
    if (path[start] == '/') {
      ++start;
      continue;
    }
    std::size_t end = path.find('/', start);
    if (end == std::string::npos) end = path.size();
    segments.push_back(path.substr(start, end - start));
    start = end;
  }
  return segments;
}

void Router::add(Method method, const std::string& pattern, Handler handler) {
  for (const auto& route : routes_) {
    if (route.method == method && route.pattern == pattern) {
      throw ProtocolError("Router: duplicate route " + pattern);
    }
  }
  routes_.push_back(Route{method, pattern, std::move(handler),
                          routes_.size(), split_path(pattern)});
}

bool Router::match(const Route& route,
                   const std::vector<std::string>& segments,
                   PathParams& params) {
  if (route.segments.size() != segments.size()) return false;
  PathParams captured;
  for (std::size_t i = 0; i < segments.size(); ++i) {
    const std::string& pat = route.segments[i];
    if (!pat.empty() && pat.front() == ':') {
      captured[pat.substr(1)] = segments[i];
    } else if (pat != segments[i]) {
      return false;
    }
  }
  params = std::move(captured);
  return true;
}

const Router::Route* Router::find(const Request& req,
                                  PathParams& params) const {
  const auto segments = split_path(req.path);
  for (const auto& route : routes_) {
    if (route.method != req.method) continue;
    if (match(route, segments, params)) return &route;
  }
  return nullptr;
}

bool Router::dispatch(const Request& req, const Responder& respond) const {
  PathParams params;
  const Route* route = find(req, params);
  if (!route) return false;
  route->handler(req, params, respond);
  return true;
}

}  // namespace amnesia::websvc
