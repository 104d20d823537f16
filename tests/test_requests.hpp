#pragma once
/// \file test_requests.hpp
/// Problems to SolveRequests for the tests that drive the runtime's
/// PortfolioEngine (or the Service) directly: each problem rides in a
/// default request, which inherits every setting from ServiceOptions.

#include <utility>
#include <vector>

#include "pmcast/request.hpp"

namespace pmcast {

inline SolveRequest request_for(Problem problem) {
  SolveRequest request;
  request.problem = std::move(problem);
  return request;
}

inline std::vector<SolveRequest> requests_for(std::vector<Problem> problems) {
  std::vector<SolveRequest> requests;
  requests.reserve(problems.size());
  for (Problem& problem : problems) {
    requests.push_back(request_for(std::move(problem)));
  }
  return requests;
}

}  // namespace pmcast
