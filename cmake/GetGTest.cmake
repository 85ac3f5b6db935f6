# Resolve a GoogleTest to link the suites against, in order of preference:
#
#   1. the system install (find_package),
#   2. the vendored single-header fallback in third_party/minigtest.
#
# Tier 2 keeps fully offline builds working: it is a small gtest-compatible
# reimplementation covering the macro surface the mmdiag suites use (TEST,
# TEST_F, TEST_P/INSTANTIATE_TEST_SUITE_P, EXPECT_*/ASSERT_*, SCOPED_TRACE,
# GTEST_SKIP). Nothing is downloaded. Set -DMMDIAG_FORCE_BUNDLED_GTEST=ON to
# exercise it directly; scripts/ci.sh builds and runs the suites that way.
#
# Defines the function mmdiag_link_gtest(<target>) and sets
# MMDIAG_GTEST_PROVIDER to "system" or "bundled".

set(MMDIAG_GTEST_PROVIDER "")

if(NOT MMDIAG_FORCE_BUNDLED_GTEST)
  find_package(GTest QUIET)
  if(GTest_FOUND)
    set(MMDIAG_GTEST_PROVIDER "system")
  endif()
endif()

if(NOT MMDIAG_GTEST_PROVIDER)
  add_library(mmdiag_minigtest STATIC
    "${CMAKE_SOURCE_DIR}/third_party/minigtest/gtest_main.cpp")
  target_include_directories(mmdiag_minigtest PUBLIC
    "${CMAKE_SOURCE_DIR}/third_party/minigtest")
  target_compile_features(mmdiag_minigtest PUBLIC cxx_std_20)
  set(MMDIAG_GTEST_PROVIDER "bundled")
endif()

set(MMDIAG_GTEST_PROVIDER "${MMDIAG_GTEST_PROVIDER}" PARENT_SCOPE)

function(mmdiag_link_gtest target)
  if(MMDIAG_GTEST_PROVIDER STREQUAL "bundled")
    target_link_libraries(${target} PRIVATE mmdiag_minigtest)
  elseif(TARGET GTest::gtest_main)
    target_link_libraries(${target} PRIVATE GTest::gtest_main GTest::gtest)
  else()
    # FindGTest before CMake 3.20 defines only GTest::GTest and GTest::Main.
    target_link_libraries(${target} PRIVATE GTest::Main GTest::GTest)
  endif()
endfunction()

message(STATUS "mmdiag: GoogleTest provider = ${MMDIAG_GTEST_PROVIDER}")
