# The end-to-end benchmark's targets, added to the repository's own build
# without touching its CMakeLists: run.py passes this file as
# CMAKE_PROJECT_mbq_INCLUDE, so cmake reads it right after the top-level
# project(mbq) call. The targets are defined by a deferred call, once the
# top-level CMakeLists has finished: every library, include directory and
# compile definition of the repository is in place by then. Everything
# else the benchmark runs — the libraries, mbqd, mbqbench — is built by
# the repository's own rules.
set(MBQ_E2E_DIR ${CMAKE_CURRENT_LIST_DIR})

function(mbq_e2e_targets)
  add_library(mbq_e2e ${MBQ_E2E_DIR}/measure.cc ${MBQ_E2E_DIR}/trace.cc)
  target_include_directories(mbq_e2e PUBLIC ${CMAKE_SOURCE_DIR})
  target_link_libraries(mbq_e2e PUBLIC mbq_driver mbq_core)

  add_executable(mbq_e2e_runner ${MBQ_E2E_DIR}/runner.cc)
  target_link_libraries(mbq_e2e_runner PRIVATE mbq_e2e)

  # Tests, labelled `e2e` (README.md has the commands); the smoke run
  # also carries `slow`.
  include(GoogleTest)
  add_executable(e2e_test ${MBQ_E2E_DIR}/e2e_test.cc)
  target_link_libraries(e2e_test PRIVATE mbq_e2e GTest::gtest
    GTest::gtest_main)
  gtest_discover_tests(e2e_test DISCOVERY_TIMEOUT 60
    PROPERTIES LABELS e2e)
  find_package(Python3 COMPONENTS Interpreter REQUIRED)
  add_test(NAME e2e_compare_test
    COMMAND ${Python3_EXECUTABLE} ${MBQ_E2E_DIR}/compare_test.py)
  set_tests_properties(e2e_compare_test PROPERTIES LABELS e2e)
  add_test(NAME e2e_smoke
    COMMAND ${Python3_EXECUTABLE} ${MBQ_E2E_DIR}/run.py --smoke
    WORKING_DIRECTORY ${CMAKE_SOURCE_DIR})
  set_tests_properties(e2e_smoke PROPERTIES LABELS "e2e;slow" TIMEOUT 600)
endfunction()

cmake_language(DEFER CALL mbq_e2e_targets)
